"""Closed trace formulas for Hecke and composed Atkin-Lehner operators.

One route serves both: T_n composed with W_ell is the ell > 1 case of the
Hecke formulas at level N/ell, with the class sum Moebius-twisted over
u | ell at the multiples t of ell, and the cusp sum scaled by phi(ell)/ell.
The class sums are exponent histograms of chi in ints that read 12*H and
12*h0 as ints (`twelve_H`, `twelve_h0`), and each part of a trace
(elliptic, hyperbolic, the full trace, its h0 cross-check) is one CycloNum
built from its histogram and scaled once.  All values are exact; the
composed entry points return rationals.  Every formula has an independent
verification route (group-ring operator acting on period polynomials)
exercised by the oracle comparisons.
"""

import math
from collections import namedtuple
from functools import lru_cache, partial

from .arith import (
    QQ,
    divisors,
    gegenbauer,
    index_phi1,
    is_square,
    isqrt,
    moebius,
    sigma1,
    sigma1_N,
    validate_query,
)
from .class_numbers import twelve_H, twelve_h0
from .cusp_terms import cusp_sum
from .dirichlet import CycloNum, trivial_character
from .local_counts import B_counts, C_counts

__all__ = [
    "TraceResult",
    "trace_hecke_cusp",
    "trace_hecke_full",
    "trace_atkin_lehner",
    "trace_atkin_full",
    "scalar_term",
    "trace_series",
    "cohen_gamma04",
]


TraceResult = namedtuple("TraceResult", "value elliptic hyperbolic correction warning", defaults=(None,))
TraceResult.__doc__ = """An exact trace with its assembly parts.

value = elliptic + hyperbolic + correction, all CycloNum (or rational
CycloNum); the parts mirror the formula's class-sum / cusp-sum split.
`warning` is None or a message about the query.
"""


def _parity_ok(chi, k):
    return chi.parity() == (1 if k % 2 == 0 else -1)


def _zero_result(chi, warning=None):
    z = CycloNum.zero(chi.order)
    return TraceResult(z, z, z, z, warning)


def _fold_t(ts, term):
    """term(0) + 2 * term(t) summed over the nonzero t in ts, on exponent
    histograms in ints.

    Callers guarantee term(-t) = term(t) (parity hypothesis), so this is the
    sum over all t with |t| in ts.
    """
    total = term(0)
    for t in ts:
        if t:
            total = [x + 2 * y for x, y in zip(total, term(t))]
    return total


@lru_cache(maxsize=256)
def _class_pairs(N, ell):
    """((u u')^2, mu(u), u') for u | ell squarefree and u' | N/ell: the
    terms of the class sum, which do not depend on t."""
    pairs = []
    for u in divisors(ell):
        mu = moebius(u)
        if mu:
            pairs += [((u * up) ** 2, mu, up) for up in divisors(N // ell)]
    return tuple(pairs)


def _class_sum(N, ell, chi, w, n, t):
    """Gegenbauer weight P_w(t, ell n) times the Moebius-twisted class sum
    over u | ell, u' | N/ell of mu(u) 12 H(D/(u u')^2) C_{N/ell}(u', t, ell n),
    D = 4 ell n - t^2, for chi a character mod N/ell, as an exponent histogram
    in ints; ell = 1 is the Hecke operator's sum over u | N of
    12 H(D/u^2) C(u, t, n)."""
    Np, m = N // ell, ell * n
    D = 4 * m - t * t
    acc = [0] * chi.order
    for sq, mu, up in _class_pairs(N, ell):
        if D % sq:
            continue
        h = mu * twelve_H(D // sq)
        if h:
            acc = [x + h * y for x, y in zip(acc, C_counts(Np, chi, up, t, m))]
    g = gegenbauer(w, t, m)
    return [g * x for x in acc]


def _cusp_trace(N, ell, chi, k, n):
    """Trace of T_n composed with W_ell on cusp forms, chi a character mod
    N/ell: t runs over the multiples of ell, the elliptic and hyperbolic
    terms carry ell^(-w/2), and the hyperbolic term is the cusp sum of
    min(a, d)^(k-1)."""
    w, m = k - 2, ell * n
    scale = QQ(-1, 2 * ell ** (w // 2))
    ts = range(0, isqrt(4 * m) + 1, ell)
    elliptic = chi.value(_fold_t(ts, partial(_class_sum, N, ell, chi, w, n))) * (scale / 12)

    hyper = cusp_sum(N, ell, chi, n, lambda a, d: min(a, d) ** (k - 1)) * scale

    corr = CycloNum.from_rational(sigma1_N(N, n) if k == 2 and chi.is_trivial() else 0, chi.order)
    return TraceResult(elliptic + hyper + corr, elliptic, hyper, corr)


def trace_hecke_cusp(N, chi, k, n):
    """Trace of the degree-n Hecke operator on the cusp-form space.

    Parity violations (chi(-1) != (-1)^k) return the exact zero trace with a
    warning field instead of raising.
    """
    validate_query(N, chi, k, n)
    if not _parity_ok(chi, k):
        return _zero_result(chi, warning="character parity does not match the weight")
    return _cusp_trace(N, 1, chi, k, n)


def _t_range_full(n):
    """All t >= 0 with a possibly nonzero extended class-number weight, in
    increasing order: t^2 <= 4n, or t^2 - 4n = m^2 > 0, that is
    t = (e + f)/2 for 4n = e*f with e < f of the same parity."""
    split = [(e + 4 * n // e) // 2 for e in divisors(4 * n) if e * e < 4 * n and (4 * n // e - e) % 2 == 0]
    return list(range(isqrt(4 * n) + 1)) + split[::-1]


def _full_trace(N, ell, chi, k, n, term=None):
    """Raw double-coset trace of T_n composed with W_ell on cusp plus all
    modular forms by Hurwitz class numbers, chi a character mod N/ell (no
    ell^(w/2) normalization).  term(t), an exponent histogram of twelve
    times the class sum at t, defaults to the Hurwitz one."""
    ts = [t for t in _t_range_full(ell * n) if t % ell == 0]
    total = chi.value(_fold_t(ts, term or partial(_class_sum, N, ell, chi, k - 2, n))) * QQ(-1, 12)
    if k == 2 and chi.is_trivial():
        total = total + sigma1_N(N, n)
    return total


def trace_hecke_full(N, chi, k, n):
    """Trace on cusp forms plus all modular forms, via extended class numbers.

    Both published shapes (Hurwitz numbers over divisors of N, and primitive
    weighted numbers against the Moebius-inverted local factor) are computed
    and must agree; their common value is returned.
    """
    validate_query(N, chi, k, n)
    if not _parity_ok(chi, k):
        return CycloNum.zero(chi.order)
    w = k - 2

    def h0_term(t):
        D = t * t - 4 * n
        if D == 0:
            # primed sum: only the u = 0 term, with gcd(N, 0) = N
            terms = [(N, 0)]
        else:
            terms = [(math.gcd(N, u), D // (u * u)) for u in range(1, isqrt(abs(D)) + 1) if D % (u * u) == 0]
        acc = [0] * chi.order
        for g, E in terms:
            h = twelve_h0(E)
            if h:
                acc = [x + h * y for x, y in zip(acc, B_counts(N, chi, g, t, n))]
        p = gegenbauer(w, t, n)
        return [p * x for x in acc]

    total_h = _full_trace(N, 1, chi, k, n)
    total_h0 = _full_trace(N, 1, chi, k, n, h0_term)
    if total_h != total_h0:
        raise RuntimeError(
            f"class-number variants disagree at N={N}, k={k}, n={n}: "
            f"{total_h!r} vs {total_h0!r}"
        )
    return total_h


def trace_atkin_lehner(N, ell, k, n):
    """Trace of (degree-n Hecke) composed with the Atkin-Lehner involution
    at an exact divisor ell, on the cusp-form space (trivial character)."""
    validate_query(N, None, k, n, ell)
    return _cusp_trace(N, ell, trivial_character(N // ell), k, n)


def trace_atkin_full(N, ell, k, n):
    """Raw double-coset trace on cusp plus all modular forms (no ell^(w/2)
    normalization); the quantity the period oracle computes directly."""
    validate_query(N, None, k, n, ell)
    return _full_trace(N, ell, trivial_character(N // ell), k, n).as_rational()


def scalar_term(N, chi, k, n):
    """Closed form of the square-index scalar-class slice of the trace."""
    validate_query(N, chi, k, n)
    if not is_square(n):
        return CycloNum.zero(chi.order)
    r = isqrt(n)
    val = chi(r) * QQ(index_phi1(N) * (k - 1) * r ** (k - 2), 12)
    return val


def trace_series(N, chi, n, k_max):
    """Traces on cusp-plus-all-forms for k = 2..k_max (generating series
    coefficients, one weight at a time)."""
    validate_query(N, chi, k_max, n)
    return [trace_hecke_full(N, chi, k, n) for k in range(2, k_max + 1)]


def cohen_gamma04(k, n):
    """Level-4 odd-index specialization as a finite class-number sum."""
    validate_query(4, None, k, n)
    if n % 2 == 0:
        raise ValueError("n must be odd")
    # 4 * total in ints: -6 * divisor sum - the class sum of 12*H + 4 * sigma1
    total4 = -6 * sum(min(a, n // a) ** (k - 1) for a in divisors(n))
    s = 0
    while s * s <= n:
        term = gegenbauer(k - 2, 2 * s, n) * twelve_H(n - s * s)
        total4 -= term if s == 0 else 2 * term
        s += 1
    if k == 2:
        total4 += 4 * sigma1(n)
    if total4 % 4:
        raise ArithmeticError(f"the level-4 sum at k={k}, n={n} is not an integer: {total4}/4")
    return total4 // 4
