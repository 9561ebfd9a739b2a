"""The acceptance battery: every released formula is checked against an
independent route, exactly.

Each criterion function returns (ok, detail).  run_suite prints one line per
criterion and reports overall success; the CLI and the test suite both call
into this module so there is a single source of truth for the gates.
"""

import math

from .arith import QQ, divisors, gegenbauer, moebius, sigma1
from .class_numbers import h0, hurwitz_H, precompute
from .cusp_terms import (
    coboundary_trace,
    coboundary_trace_atkin,
    eisenstein_trace,
    eisenstein_trace_atkin,
    phi_chi,
    phi_generic,
)
from .dirichlet import enumerate_characters, trivial_character
from .hecke_operator import build_Tn, build_Tn_infty, verify_operator
from .local_counts import C_counts, C_fast, solution_set
from .period_oracle import (
    atkin_coset_desc,
    dim_period_space,
    hecke_coset_desc,
    trace_coboundary,
    trace_on_W,
)
from .trace_formulas import (
    cohen_gamma04,
    scalar_term,
    trace_atkin_full,
    trace_hecke_cusp,
    trace_hecke_full,
)

__all__ = ["CRITERIA", "run_suite", "eta_product"]


def eta_product(factors, limit):
    """a_0..a_{limit-1} of q * prod over (d, r) of prod_{m >= 1} (1 - q^(dm))^r:
    the eta product prod eta(dz)^r when sum d r = 24; Delta is ((1, 24),).

    Plain power-series bookkeeping, independent of every trace formula.
    """
    series = [0, 1] + [0] * (limit - 2)
    for d, r in factors:
        for _ in range(r):
            for k in range(d, limit, d):
                for i in range(limit - 1, k - 1, -1):
                    series[i] -= series[i - k]
    return series


def _parity_chars(N, k):
    want = 1 if k % 2 == 0 else -1
    return [chi for chi in enumerate_characters(N) if chi.parity() == want]


# -- criteria -----------------------------------------------------------------


def criterion_universal_operator(quick=False):
    """1: transfer/exchange/class-sum battery for the group-ring operator."""
    top = 8 if quick else 20
    for n in range(1, top + 1):
        rep = verify_operator(n)
        if not rep["ok"]:
            return False, f"operator check failed at n={n}: " + str(
                {k: v for k, v in rep.items() if k != "ledger"}
            )
        if n in (1, 4, 9, 16):
            r = math.isqrt(n)
            scal = (r, 0, 0, r)
            from .matrix_forms import class_label

            lab = class_label(scal)
            got = rep["ledger"].get(lab)
            if got is None or got[0] != QQ(1, 6):
                return False, f"scalar class sum at n={n} is {got}, expected 1/6"
    return True, f"n=1..{top}, both constructions, all properties"


def criterion_kronecker_hurwitz(quick=False):
    """2: class-number relation and the extension inversion pair."""
    ntop = 50 if quick else 200
    dtop = 10**3 if quick else 10**4
    precompute(4 * ntop)
    for n in range(1, ntop + 1):
        total = QQ(0)
        for t in range(0, n + 2):  # extended weights vanish beyond t = n+1
            v = hurwitz_H(4 * n - t * t)
            total += v if t == 0 else 2 * v
        if total != sigma1(n):
            return False, f"Kronecker-Hurwitz fails at n={n}: {total}"
    precompute(dtop)
    for D in range(-dtop, dtop + 1):
        # H(-D) = sum of h0(D/d^2) and h0(-D) = sum of mu(d) H(D/d^2), d^2 | D
        if D == 0:
            H_sum, h0_sum = h0(0), hurwitz_H(0)
        else:
            H_sum = h0_sum = QQ(0)
            d = 1
            while d * d <= abs(D):
                if D % (d * d) == 0:
                    H_sum += h0(D // (d * d))
                    mu = moebius(d)
                    if mu:
                        h0_sum += hurwitz_H(D // (d * d)) * mu
                d += 1
        if hurwitz_H(-D) != H_sum:
            return False, f"inversion H(-D) fails at D={D}"
        if h0(-D) != h0_sum:
            return False, f"inversion h0(-D) fails at D={D}"
    return True, f"relation n<=ntop={ntop}, inversion |D|<={dtop}"


def criterion_level_one_eigenvalues(quick=False):
    """3: weight-12 level-1 traces equal the discriminant-form coefficients."""
    top = 10 if quick else 50
    tau = eta_product(((1, 24),), top + 1)
    chi = trivial_character(1)
    for n in range(1, top + 1):
        got = trace_hecke_cusp(1, chi, 12, n).value
        if got != tau[n]:
            return False, f"tau mismatch at n={n}: {got} vs {tau[n]}"
    return True, f"tau(n) for n=1..{top} against the eta-product oracle"


_DIM_LEVELS = (1, 2, 3, 4, 5, 6, 7, 9, 11)


def criterion_dimensions(quick=False):
    """4: closed trace at n=1 equals the period-space dimension."""
    levels = (1, 2, 3, 4, 6) if quick else _DIM_LEVELS
    kmax = 8 if quick else 12
    for N in levels:
        for k in range(2, kmax + 1):
            for chi in _parity_chars(N, k):
                closed = trace_hecke_full(N, chi, k, 1)
                rank = dim_period_space(N, chi, k - 2)
                if closed != rank:
                    return False, f"dimension mismatch N={N} chi={chi.label()} k={k}: {closed} vs {rank}"
    return True, f"levels {levels}, k<=kmax={kmax}, all parity characters"


_AL_CASES = ((2, 2), (3, 3), (4, 1), (6, 2), (6, 3), (6, 6))


def criterion_oracle_equivalence(quick=False):
    """5: closed formulas equal the period-space traces, Hecke and composed."""
    nmax_h = 4 if quick else 10
    nmax_a = 2 if quick else 6
    levels = (1, 2, 3, 4) if quick else tuple(range(1, 10))
    kmax = 6 if quick else 12
    for N in levels:
        for k in range(2, kmax + 1):
            w = k - 2
            for chi in _parity_chars(N, k):
                for n in range(1, nmax_h + 1):
                    closed = trace_hecke_full(N, chi, k, n)
                    oracle = trace_on_W(N, chi, w, hecke_coset_desc(N, n), build_Tn(n))
                    if closed != oracle:
                        return False, (
                            f"Hecke oracle mismatch N={N} chi={chi.label()} k={k} n={n}: "
                            f"{closed!r} vs {oracle!r}"
                        )
    cases = ((2, 2), (4, 1)) if quick else _AL_CASES
    ks = (2, 4) if quick else (2, 4, 6, 8)
    for N, ell in cases:
        chi = trivial_character(N)
        for k in ks:
            w = k - 2
            for n in range(1, nmax_a + 1):
                closed = trace_atkin_full(N, ell, k, n)
                oracle = trace_on_W(N, chi, w, atkin_coset_desc(N, ell, n), build_Tn(n * ell))
                if oracle != closed:
                    return False, (
                        f"composed oracle mismatch N={N} ell={ell} k={k} n={n}: "
                        f"{closed} vs {oracle!r}"
                    )
    return True, f"Hecke N<={max(levels)} k<={kmax} n<={nmax_h}; composed {cases} n<={nmax_a}"


def criterion_eisenstein_triangle(quick=False):
    """6: Eisenstein trace = coboundary trace = period-side coboundary trace."""
    levels = (1, 2, 3, 4) if quick else tuple(range(1, 10))
    kmax = 6 if quick else 12
    nmax = 4 if quick else 10
    for N in levels:
        for k in range(2, kmax + 1):
            for chi in _parity_chars(N, k):
                for n in range(1, nmax + 1):
                    eis = eisenstein_trace(N, chi, k, n)
                    cob = coboundary_trace(N, chi, k, n)
                    per = trace_coboundary(
                        N, chi, k - 2, hecke_coset_desc(N, n), build_Tn_infty(n)
                    )
                    if not (eis == cob == per):
                        return False, (
                            f"triangle fails N={N} chi={chi.label()} k={k} n={n}: "
                            f"{eis!r} / {cob!r} / {per!r}"
                        )
    cases = ((2, 2), (4, 1)) if quick else _AL_CASES
    ks = (2, 4) if quick else (2, 4, 6, 8)
    nmax_a = 2 if quick else 6
    for N, ell in cases:
        chi = trivial_character(N)
        for k in ks:
            for n in range(1, nmax_a + 1):
                eis = eisenstein_trace_atkin(N, ell, k, n)
                cob = coboundary_trace_atkin(N, ell, k, n)
                per = trace_coboundary(
                    N, chi, k - 2, atkin_coset_desc(N, ell, n), build_Tn_infty(n * ell)
                )
                if not (per == eis and eis == cob):
                    return False, f"composed triangle fails N={N} ell={ell} k={k} n={n}"
    grid = f"N<={max(levels)} k<={kmax} n<={nmax}; composed {cases} n<={nmax_a}"
    return True, f"Eisenstein = coboundary = period coboundary on {grid}"


def criterion_cohen(quick=False):
    """7: the level-4 odd-index specialization."""
    kmax = 6 if quick else 12
    ntop = 21 if quick else 49
    zero_top = 99 if quick else 199
    chi4 = trivial_character(4)
    for k in range(2, kmax + 1, 2):
        for n in range(1, ntop + 1, 2):
            if cohen_gamma04(k, n) != trace_hecke_cusp(4, chi4, k, n).value:
                return False, f"level-4 mismatch k={k} n={n}"
    for n in range(1, zero_top + 1, 2):
        if cohen_gamma04(2, n) != 0:
            return False, f"weight-2 value nonzero at n={n}"
    return True, f"k<={kmax} odd n<={ntop}; weight-2 vanishing odd n<={zero_top}"


def criterion_local_tables(quick=False):
    """8: prime-power local factor tables against brute-force counting."""
    amax = 2 if quick else 4
    tmax = 4 if quick else 10
    nmax = 8 if quick else 25
    for p in (2, 3, 5):
        for a in range(1, amax + 1):
            N = p**a
            chiN = trivial_character(N)
            for i in range(a + 1):
                u = p**i
                for t in range(-tmax, tmax + 1):
                    for n in range(1, nmax + 1):
                        D = t * t - 4 * n
                        if D % (u * u):
                            continue  # outside the key domain (u^2 | D)
                        brute = chiN.value(C_counts(N, chiN, u, t, n)).as_rational()
                        fast = len(solution_set(N, 1, t, n)) * C_fast(N, u, D)
                        if brute != fast:
                            return False, f"table mismatch p={p} a={a} i={i} t={t} n={n}: {brute} vs {fast}"
    for N in (6, 10, 15, 30):
        for u in divisors(N):
            for D0 in (0, 1, 4, -4, 8, -8, 12, 60, -347, 100):
                D = D0 * u * u
                if C_fast(N, u, D) != u:
                    return False, f"squarefree law fails N={N} u={u} D={D}"
    return True, f"p in 2,3,5 a<={amax} |t|<={tmax} n<={nmax}; squarefree levels"


def criterion_phi_coherence(quick=False):
    """9: cusp-sum closed forms match the enumeration oracle and are symmetric."""
    levels = range(1, 7) if quick else range(1, 13)
    admax = 8 if quick else 24
    for N in levels:
        for chi in enumerate_characters(N):
            w = 0 if chi.parity() == 1 else 1
            for ad in range(1, admax + 1):
                for a in divisors(ad):
                    d = ad // a
                    closed = phi_chi(N, chi, a, d)
                    if closed != phi_chi(N, chi, d, a):
                        return False, f"asymmetric cusp sum N={N} chi={chi.label()} ({a},{d})"
                    oracle = phi_generic(hecke_coset_desc(N, ad), chi, w, a, d)
                    if closed != oracle:
                        return False, f"cusp oracle mismatch N={N} chi={chi.label()} ({a},{d})"
    return True, f"levels<={max(levels)}, products<={admax}, all characters"


def criterion_scalar_slice(quick=False):
    """10: closed scalar term equals the boundary slice of the class sum."""
    levels = range(1, 7) if quick else range(1, 13)
    kmax = 8 if quick else 12
    from .dirichlet import CycloNum

    for N in levels:
        for k in range(2, kmax + 1):
            for chi in _parity_chars(N, k):
                for n in (1, 4, 9):
                    r = math.isqrt(n)
                    slice_val = CycloNum.zero(chi.order)
                    for u in divisors(N):
                        slice_val = slice_val + chi.value(C_counts(N, chi, u, 2 * r, n)) * hurwitz_H(0)
                    slice_val = slice_val * gegenbauer(k - 2, 2 * r, n) * QQ(-1)
                    if scalar_term(N, chi, k, n) != slice_val:
                        return False, f"scalar slice mismatch N={N} chi={chi.label()} k={k} n={n}"
    return True, f"levels<={max(levels)}, k<={kmax}, square indices 1,4,9"


CRITERIA = (
    ("universal operator battery", criterion_universal_operator),
    ("Kronecker-Hurwitz and inversion", criterion_kronecker_hurwitz),
    ("level-one eigenvalues", criterion_level_one_eigenvalues),
    ("dimension identities", criterion_dimensions),
    ("oracle equivalence", criterion_oracle_equivalence),
    ("Eisenstein/coboundary triangle", criterion_eisenstein_triangle),
    ("level-4 specialization", criterion_cohen),
    ("local factor tables", criterion_local_tables),
    ("cusp-sum coherence", criterion_phi_coherence),
    ("scalar-term slice", criterion_scalar_slice),
)


def run_suite(quick=False, out=print):
    """Run every criterion; one line each; returns True iff all pass."""
    all_ok = True
    for idx, (name, fn) in enumerate(CRITERIA, start=1):
        ok, detail = fn(quick=quick)
        all_ok = all_ok and ok
        out(f"[{idx:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
