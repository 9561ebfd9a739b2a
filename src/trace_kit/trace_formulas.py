"""Closed trace formulas for Hecke and composed Atkin-Lehner operators.

One route serves both: T_n composed with W_ell is the ell > 1 case of the
Hecke formulas at level N/ell, with the class sum Moebius-twisted over
u | ell at the multiples t of ell, and the cusp sum scaled by phi(ell)/ell.
The class sums are keyed by residue class: each t adds one int weight to
its class of the local counts, whose exponent histogram of chi is read once.
Each part of a trace is one CycloNum built from int histograms over one
common denominator.  All values are exact; the composed entry points return
rationals.  The period route checks every formula independently.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .arith import (
    QQ,
    divisors,
    euler_phi,
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
from .cusp_terms import _cusp_counts
from .dirichlet import CycloNum, _reduce, trivial_character
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


def _read(order, weights, counts):
    """Sum of c * counts(u, t) over weights' (u, t) -> c, in ints."""
    acc = [0] * order
    for (u, t), c in weights.items():
        acc = [x + c * y for x, y in zip(acc, counts(u, t))]
    return acc


def _class_counts(N, ell, chi, w, n, ts):
    """Exponent histogram in ints of the sum over t in ts, u | ell and
    u' | N/ell of P_w(t, ell n) mu(u) 12 H(D/(u u')^2) C_{N/ell}(u', t, ell n),
    D = 4 ell n - t^2, chi a character mod N/ell; -t adds what t adds (parity
    hypothesis), so t != 0 counts twice.  Each t adds its int weight to the
    residue class (u', t mod (N/ell) u')."""
    Np, m = N // ell, ell * n
    pairs = _class_pairs(N, ell)
    weights = {}
    for t in ts:
        g = gegenbauer(w, t, m) * (2 if t else 1)
        if not g:
            continue
        D = 4 * m - t * t
        for sq, mu, up in pairs:
            if D % sq == 0:
                h = twelve_H(D // sq)
                if h:
                    key = (up, t % (Np * up))
                    weights[key] = weights.get(key, 0) + mu * h * g
    return _read(chi.order, weights, lambda u, t: C_counts(Np, chi, u, t, m))


def _h0_counts(N, chi, w, n):
    """The full Hecke class sum by primitive class numbers: P_w(t, n)
    12 h0(D/u^2) B(gcd(N, u), t, n) over u^2 | D = t^2 - 4n (u = 0 alone at
    D = 0), each t adding to the residue class (g, t mod N g)."""
    weights = {}
    for t in _t_range_full(n):
        p = gegenbauer(w, t, n) * (2 if t else 1)
        if not p:
            continue
        D = t * t - 4 * n
        us = [u for u in range(1, isqrt(abs(D)) + 1) if D % (u * u) == 0] if D else [0]
        for u in us:
            h = twelve_h0(D // (u * u) if u else 0)
            if h:
                g = math.gcd(N, u)
                key = (g, t % (N * g))
                weights[key] = weights.get(key, 0) + p * h
    return _read(chi.order, weights, lambda g, t: B_counts(N, chi, g, t, n))


def _cyclo(order, hist, den):
    """The CycloNum sum of hist[k] zeta^k over den, reduced once in ints."""
    return CycloNum(order, (QQ(x, den) for x in _reduce(order, hist)))


def _cusp_trace(N, ell, chi, k, n):
    """Trace of T_n composed with W_ell on cusp forms, chi a character mod
    N/ell: t runs over the multiples of ell, the elliptic and hyperbolic
    terms carry ell^(-w/2), and the hyperbolic term is the cusp sum of
    min(a, d)^(k-1).  Each part is one int histogram over 24 ell^(w/2+1)."""
    w, m = k - 2, ell * n
    den = 24 * ell ** (w // 2 + 1)
    ell_h = [-ell * x for x in _class_counts(N, ell, chi, w, n, range(0, isqrt(4 * m) + 1, ell))]
    scale = -12 * euler_phi(ell)
    hyp_h = [scale * x for x in _cusp_counts(N, ell, chi, n, lambda a, d: min(a, d) ** (k - 1))]
    corr_h = [den * sigma1_N(N, n) if k == 2 and chi.is_trivial() else 0] + [0] * (chi.order - 1)
    value_h = [x + y + z for x, y, z in zip(ell_h, hyp_h, corr_h)]
    return TraceResult(*(_cyclo(chi.order, h, den) for h in (value_h, ell_h, hyp_h, corr_h)))


def trace_hecke_cusp(N, chi, k, n):
    """Trace of the degree-n Hecke operator on the cusp-form space.

    Parity violations (chi(-1) != (-1)^k) return the exact zero trace with a
    warning field instead of raising.
    """
    validate_query(N, chi, k, n)
    if chi.parity() != (1 if k % 2 == 0 else -1):
        z = CycloNum.zero(chi.order)
        return TraceResult(z, z, z, z, "character parity does not match the weight")
    return _cusp_trace(N, 1, chi, k, n)


def _t_range_full(n):
    """All t >= 0 with a possibly nonzero extended class-number weight, in
    increasing order: t^2 <= 4n, or t^2 - 4n = m^2 > 0, that is
    t = (e + f)/2 for 4n = e*f with e < f of the same parity."""
    split = [(e + 4 * n // e) // 2 for e in divisors(4 * n) if e * e < 4 * n and (4 * n // e - e) % 2 == 0]
    return list(range(isqrt(4 * n) + 1)) + split[::-1]


def _full_trace(N, chi, k, n, class_h):
    """Raw double-coset trace on cusp plus all modular forms (no ell^(w/2)
    normalization) from class_h, twelve times its class sum as an exponent
    histogram of chi, a character mod N/ell."""
    total = [-x for x in class_h]
    if k == 2 and chi.is_trivial():
        total[0] += 12 * sigma1_N(N, n)
    return _cyclo(chi.order, total, 12)


def trace_hecke_full(N, chi, k, n):
    """Trace on cusp forms plus all modular forms, via extended class numbers.

    Both published shapes (Hurwitz numbers over divisors of N, and primitive
    weighted numbers against the Moebius-inverted local factor) are computed
    and must agree exactly as reduced int tuples; their common value is
    returned.
    """
    validate_query(N, chi, k, n)
    if chi.parity() != (1 if k % 2 == 0 else -1):
        return CycloNum.zero(chi.order)
    hurwitz = _class_counts(N, 1, chi, k - 2, n, _t_range_full(n))
    primitive = _h0_counts(N, chi, k - 2, n)
    if _reduce(chi.order, hurwitz) != _reduce(chi.order, primitive):
        raise RuntimeError(
            f"class-number variants disagree at N={N}, k={k}, n={n}: "
            f"{_full_trace(N, chi, k, n, hurwitz)!r} vs {_full_trace(N, chi, k, n, primitive)!r}"
        )
    return _full_trace(N, chi, k, n, hurwitz)


def trace_atkin_lehner(N, ell, k, n):
    """Trace of (degree-n Hecke) composed with the Atkin-Lehner involution
    at an exact divisor ell, on the cusp-form space (trivial character)."""
    validate_query(N, None, k, n, ell)
    return _cusp_trace(N, ell, trivial_character(N // ell), k, n)


def trace_atkin_full(N, ell, k, n):
    """Raw double-coset trace on cusp plus all modular forms (no ell^(w/2)
    normalization); the quantity the period oracle computes directly."""
    validate_query(N, None, k, n, ell)
    chi = trivial_character(N // ell)
    ts = [t for t in _t_range_full(ell * n) if t % ell == 0]
    return _full_trace(N, chi, k, n, _class_counts(N, ell, chi, k - 2, n, ts)).as_rational()


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
