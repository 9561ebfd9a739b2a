"""Cusp sums for the level-N group: closed forms, a direct double-coset
enumeration oracle, and the Eisenstein / coboundary traces built from them.

The closed forms run over factorizations N = r*s; the oracle walks actual
cusp representatives and translation double cosets and must agree with them
on the nose, which the test suite checks term by term.  phi_chi is the
character sum over a list of unit lifts; cusp_sum adds the lists' exponent
histograms in ints, times the weights, and builds one CycloNum.  The lifts
depend on a and d only mod the level, so their histograms are memoized once
per residue class.
"""

import math
from functools import lru_cache

from .arith import QQ, crt_solve, divisors, euler_phi, require_exact_divisor, sigma1_N, validate_query
from .dirichlet import CycloNum, trivial_character

__all__ = [
    "CuspRep",
    "cusp_reps",
    "admissible_cusp_reps",
    "cusp_count",
    "phi_chi",
    "cusp_sum",
    "phi_generic",
    "eisenstein_trace",
    "coboundary_trace",
    "eisenstein_trace_atkin",
    "coboundary_trace_atkin",
]


class CuspRep:
    """One representative of the translation double-coset space at level N.

    C is a determinant-1 integral matrix with bottom row (r, q), r | N;
    width is the least j > 0 with C T^j C^{-1} in the level group (sign
    quotient), equal to s/(r,s) for s = N/r.
    """

    __slots__ = ("N", "r", "s", "q", "matrix", "width")

    def __init__(self, N, r, q):
        from .matrix_forms import complete_row  # imported on use: a trace runs no cusp representative

        self.N = N
        self.r = r
        self.s = N // r
        self.q = q
        self.matrix = complete_row(r, q)
        self.width = self.s // math.gcd(self.r, self.s)

    def __repr__(self):
        return f"CuspRep(N={self.N}, r={self.r}, q={self.q})"


@lru_cache(maxsize=64)
def cusp_reps(N):
    """Representatives C = (p,*;r,q), one per cusp: r | N, q running over a
    canonical set of phi((r, N/r)) residues coprime to r."""
    out = []
    for r in divisors(N):
        s = N // r
        g = math.gcd(r, s)
        for x in range(1, g + 1):
            if math.gcd(x, g) != 1:
                continue
            q = x
            while math.gcd(q, r) != 1:
                q += g
            out.append(CuspRep(N, r, q))
    return tuple(out)


def cusp_count(N):
    return sum(euler_phi(math.gcd(r, N // r)) for r in divisors(N))


def admissible_cusp_reps(N, chi):
    """Cusps carrying the character: conductor divides N/(r,s)."""
    c = chi.conductor()
    return tuple(rep for rep in cusp_reps(N) if (N // math.gcd(rep.r, rep.s)) % c == 0)


# -- closed forms ---------------------------------------------------------------


def _unit_lifts(N, chi, a, d):
    """The units mod N at which phi_chi reads chi, each phi((r,s)) times:
    for each admissible factorization N = r*s, the unit lift of the CRT class
    alpha = a (r), d (s) through the induced modulus N/(r,s)."""
    c = chi.conductor()
    lifts = []
    for r in divisors(N):
        s = N // r
        g = math.gcd(r, s)
        if (N // g) % c or (a - d) % g:
            continue
        alpha, mod = crt_solve([(a, r), (d, s)])
        if mod != N // g:
            raise ArithmeticError(f"CRT of {a} mod {r} and {d} mod {s} gave modulus {mod}, not {N // g}")
        x = chi.unit_lift(alpha, mod)
        if x is not None:
            lifts += [x] * euler_phi(g)
    return lifts


@lru_cache(maxsize=1 << 12)
def _lift_counts(N, chi, a, d):
    """chi's exponent histogram of the unit lifts at (a, d), as a tuple;
    the lifts depend only on a and d mod N, which callers reduce first."""
    return tuple(chi.counts(_unit_lifts(N, chi, a, d)))


def phi_chi(N, chi, a, d):
    """Character cusp sum over factorizations N = r*s: chi summed once over
    the unit lifts, each factorization's phi((r,s)) times.  Valid under the
    parity hypothesis chi(-1) = (-1)^k."""
    if chi.modulus != N:
        raise ValueError("character modulus must equal the level")
    return chi.total(_unit_lifts(N, chi, a, d))


def _cusp_counts(N, ell, chi, n, weight):
    """cusp_sum before its phi(ell)/ell, in ints: the weighted exponent
    histograms of the unit lifts, read by (a, d) mod N/ell."""
    require_exact_divisor(N, ell)
    if chi.modulus != N // ell:
        raise ValueError("character modulus must equal the level")
    Np = N // ell
    acc = [0] * chi.order
    for a in divisors(n * ell):
        d = n * ell // a
        if (a + d) % ell == 0:
            wt = weight(a, d)
            if wt:
                acc = [x + wt * y for x, y in zip(acc, _lift_counts(Np, chi, a % Np, d % Np))]
    return acc


def cusp_sum(N, ell, chi, n, weight):
    """The cusp rule of the Hecke (ell = 1) and composed traces: phi(ell)/ell
    times the sum over a*d = ell*n with ell | a + d of phi_chi(N/ell, chi,
    a, d) weight(a, d), chi a character mod N/ell."""
    return chi.value(_cusp_counts(N, ell, chi, n, weight)) * QQ(euler_phi(ell), ell)


# -- direct enumeration oracle ----------------------------------------------------


def phi_generic(sigma, chi, w, a, d):
    """Cusp sum by direct double-coset enumeration.

    For each admissible cusp representative C and each upper-triangular
    matrix (a, b; 0, d) with b modulo width*(a,d), test membership of
    C M C^{-1} in the double coset and accumulate the twist value; divide
    by (a,d).  Must reproduce the closed forms exactly.
    """
    from .matrix_forms import in_atkin_coset, mat_mul, sigma_det, sigma_twist  # imported on use, as above

    if chi.modulus != sigma[0]:
        raise ValueError("character modulus must equal the level")
    if a * d != sigma_det(sigma):
        return CycloNum.zero(chi.order)
    if chi.parity() != (1 if w % 2 == 0 else -1):
        return CycloNum.zero(chi.order)
    N = sigma[0]
    g = math.gcd(a, d)
    args = []
    for rep in admissible_cusp_reps(N, chi):
        C = rep.matrix
        Cinv = (C[3], -C[1], -C[2], C[0])
        span = rep.width * g
        for b in range(span):
            m = (a, b, 0, d)
            cm = mat_mul(mat_mul(C, m), Cinv)
            if in_atkin_coset(cm, *sigma):
                args.append(sigma_twist(sigma, cm))
    return chi.total(args) / g


# -- Eisenstein and coboundary traces ----------------------------------------------


def _eisenstein(N, ell, chi, k, n, side):
    """The cusp sum of (a, d)[side]^(k-1), chi a character mod N/ell; ell = 1
    is the Hecke operator."""
    if chi.parity() != (1 if k % 2 == 0 else -1):
        return CycloNum.zero(chi.order)
    total = cusp_sum(N, ell, chi, n, lambda a, d: (a, d)[side] ** (k - 1))
    if k == 2 and chi.is_trivial():
        total = total - sigma1_N(N, n)
    return total


def eisenstein_trace(N, chi, k, n):
    """Trace of the degree-n Hecke operator on the Eisenstein subspace."""
    validate_query(N, chi, k, n)
    return _eisenstein(N, 1, chi, k, n, 0)


def coboundary_trace(N, chi, k, n):
    """Same trace computed from the coboundary side: d^(k-1) weights."""
    validate_query(N, chi, k, n)
    return _eisenstein(N, 1, chi, k, n, 1)


def _eisenstein_composed(N, ell, k, n, side):
    validate_query(N, None, k, n, ell)
    return _eisenstein(N, ell, trivial_character(N // ell), k, n, side).as_rational()


def eisenstein_trace_atkin(N, ell, k, n):
    """Raw double-coset Eisenstein trace for the composed operator.

    No ell^(w/2) normalization here: this matches the trace of the plain
    double-coset action used by the period oracle.
    """
    return _eisenstein_composed(N, ell, k, n, 0)


def coboundary_trace_atkin(N, ell, k, n):
    """The composed trace from the coboundary side: d^(k-1) weights."""
    return _eisenstein_composed(N, ell, k, n, 1)
