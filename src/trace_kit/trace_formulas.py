"""Closed trace formulas for Hecke and composed Atkin-Lehner operators.

All values are exact; characters produce cyclotomic numbers, the trivial
character and the Atkin-Lehner case produce rationals.  Every formula here
has an independent verification route (group-ring operator acting on period
polynomials) exercised by the oracle comparisons in the verification suite.
"""

import math
from dataclasses import dataclass
from functools import partial

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
from .class_numbers import h0, hurwitz_H
from .cusp_terms import phi_chi, phi_ell
from .dirichlet import CycloNum, trivial_character
from .local_counts import B_coeff, C_coeff

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


@dataclass
class TraceResult:
    """An exact trace with its assembly parts.

    value = elliptic + hyperbolic + correction, all CycloNum (or rational
    CycloNum); the parts mirror the formula's class-sum / cusp-sum split.
    """

    value: CycloNum
    elliptic: CycloNum
    hyperbolic: CycloNum
    correction: CycloNum
    warning: str | None = None


def _parity_ok(chi, k):
    return chi.parity() == (1 if k % 2 == 0 else -1)


def _zero_result(chi, warning=None):
    z = CycloNum.zero(chi.order)
    return TraceResult(z, z, z, z, warning)


def _fold_t(ts, term):
    """term(0) + 2 * term(t) summed over the nonzero t in ts.

    Callers guarantee term(-t) = term(t) (parity hypothesis), so this is the
    sum over all t with |t| in ts.
    """
    total = term(0)
    for t in ts:
        if t:
            total = total + term(t) * 2
    return total


def _elliptic_term(N, chi, w, n, t):
    """Gegenbauer weight times sum over u | N of H((4n - t^2)/u^2) C(u, t, n)."""
    acc = CycloNum.zero(chi.order)
    D = 4 * n - t * t
    for u in divisors(N):
        if D % (u * u):
            continue
        hval = hurwitz_H(D // (u * u))
        if hval:
            acc = acc + C_coeff(N, chi, u, t, n) * hval
    return acc * gegenbauer(w, t, n)


def _atkin_term(N, ell, w, n, t):
    """Gegenbauer weight times the Moebius-twisted class sum of the composed
    operator: sum over u | ell, u' | N/ell of mu(u) H(D/(u u')^2) C(u', t, ell n)."""
    ellp = N // ell
    chi1p = trivial_character(ellp)
    D = 4 * ell * n - t * t
    inner = QQ(0)
    for u in divisors(ell):
        mu = moebius(u)
        if not mu:
            continue
        for up in divisors(ellp):
            uu = u * up
            if D % (uu * uu):
                continue
            hval = hurwitz_H(D // (uu * uu))
            if hval:
                inner += hval * C_coeff(ellp, chi1p, up, t, ell * n).as_rational() * mu
    return inner * gegenbauer(w, t, ell * n)


def trace_hecke_cusp(N, chi, k, n):
    """Trace of the degree-n Hecke operator on the cusp-form space.

    Parity violations (chi(-1) != (-1)^k) return the exact zero trace with a
    warning field instead of raising.
    """
    validate_query(N, chi, k, n)
    if not _parity_ok(chi, k):
        return _zero_result(chi, warning="character parity does not match the weight")

    elliptic = _fold_t(range(isqrt(4 * n) + 1), partial(_elliptic_term, N, chi, k - 2, n)) * QQ(-1, 2)

    hyper = CycloNum.zero(chi.order)
    for a in divisors(n):
        d = n // a
        hyper = hyper + phi_chi(N, chi, a, d) * min(a, d) ** (k - 1)
    hyper = hyper * QQ(-1, 2)

    corr = CycloNum.zero(chi.order)
    if k == 2 and chi.is_trivial():
        corr = corr + sigma1_N(N, n)

    return TraceResult(elliptic + hyper + corr, elliptic, hyper, corr)


def _t_range_full(n):
    """All t >= 0 with a possibly nonzero extended class-number weight, in
    increasing order: t^2 <= 4n, or t^2 - 4n = m^2 > 0, that is
    t = (e + f)/2 for 4n = e*f with e < f of the same parity."""
    split = [(e + 4 * n // e) // 2 for e in divisors(4 * n) if e * e < 4 * n and (4 * n // e - e) % 2 == 0]
    return list(range(isqrt(4 * n) + 1)) + split[::-1]


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
        acc = CycloNum.zero(chi.order)
        D = t * t - 4 * n
        if D == 0:
            # primed sum: only the u = 0 term, with gcd(N, 0) = N
            return B_coeff(N, chi, N, t, n) * (h0(0) * gegenbauer(w, t, n))
        u = 1
        while u * u <= abs(D):
            if D % (u * u) == 0:
                hval = h0(D // (u * u))
                if hval:
                    acc = acc + B_coeff(N, chi, math.gcd(N, u), t, n) * hval
            u += 1
        return acc * gegenbauer(w, t, n)

    ts = _t_range_full(n)
    total_h = -_fold_t(ts, partial(_elliptic_term, N, chi, w, n))
    total_h0 = -_fold_t(ts, h0_term)
    if k == 2 and chi.is_trivial():
        extra = sigma1_N(N, n)
        total_h = total_h + extra
        total_h0 = total_h0 + extra
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
    w = k - 2
    scale = QQ(1, ell ** (w // 2))

    ts = range(0, isqrt(4 * ell * n) + 1, ell)
    elliptic = -_fold_t(ts, partial(_atkin_term, N, ell, w, n)) * scale / 2

    hyper = QQ(0)
    for a in divisors(n * ell):
        d = n * ell // a
        if (a + d) % ell == 0:
            hyper += min(a, d) ** (k - 1) * scale * phi_ell(N, ell, a, d)
    hyper = -hyper / 2

    corr = QQ(sigma1_N(N, n)) if k == 2 else QQ(0)
    return TraceResult(
        CycloNum.from_rational(elliptic + hyper + corr),
        CycloNum.from_rational(elliptic),
        CycloNum.from_rational(hyper),
        CycloNum.from_rational(corr),
    )


def trace_atkin_full(N, ell, k, n):
    """Raw double-coset trace on cusp plus all modular forms (no ell^(w/2)
    normalization); the quantity the period oracle computes directly."""
    validate_query(N, None, k, n, ell)
    ts = [t for t in _t_range_full(n * ell) if t % ell == 0]
    total = -_fold_t(ts, partial(_atkin_term, N, ell, k - 2, n))
    if k == 2:
        total += sigma1_N(N, n)
    return total


def scalar_term(N, chi, k, n):
    """Closed form of the square-index scalar-class slice of the trace."""
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
    div = QQ(0)
    for a in divisors(n):
        div += min(a, n // a) ** (k - 1)
    cls = QQ(0)
    s = 0
    while s * s <= n:
        term = gegenbauer(k - 2, 2 * s, n) * hurwitz_H(n - s * s)
        cls += term if s == 0 else 2 * term
        s += 1
    total = QQ(-3, 2) * div - 3 * cls
    if k == 2:
        total += sigma1(n)
    assert total.denominator == 1
    return int(total)
