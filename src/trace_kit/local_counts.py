"""Local solution counts and conjugacy-class weights for the level-N formulas.

S_N(u,t,n) counts units alpha mod N with alpha^2 - t*alpha + n = 0 (mod N*u);
B is its character-weighted, index-scaled version, C its Moebius inverse.
B_counts and C_counts give both as exponent histograms of chi in ints, the
form the closed trace formulas sum; B_coeff and C_coeff build one CycloNum
from each.  Since u | N makes u^2 divide N*u, all three depend on t and n
only mod N*u: the histograms are memoized once per residue class, so a
range of traces revisits a few classes instead of counting per (t, n).
C_fast is the closed multiplicative evaluation of the trivial-character C
via prime-power tables.
c_class_closed is the closed conjugacy-class weight, and c_atkin_closed the
one at level N/ell; their direct counterparts, sums over the fixed points of
the double-coset action on P^1(Z/N), live on the period side.
"""

import math
from functools import lru_cache

from .arith import (
    divisors,
    eps4,
    factorize,
    index_phi1,
    legendre,
    moebius,
    validate_query,
    valuation,
)
from .dirichlet import trivial_character
from .matrix_forms import form_content, mat_det, mat_trace, quad_form_of

__all__ = [
    "solution_set",
    "count_S",
    "count_S_plain",
    "B_counts",
    "B_coeff",
    "C_counts",
    "C_coeff",
    "C_fast",
    "c_class_closed",
    "c_atkin_closed",
]


@lru_cache(maxsize=4096)
def solution_set(N, u, t, n):
    """Units alpha in Z/N with alpha^2 - t*alpha + n = 0 (mod N*u).

    Returns a tuple of residues mod N; empty when the key is invalid
    (u does not divide N or u^2 does not divide t^2 - 4n).  On a valid key
    every lift alpha + kN solves mod N*u or none does, so testing alpha
    itself suffices.
    """
    if N % u or (t * t - 4 * n) % (u * u):
        return ()
    M = N * u
    out = []
    for alpha in range(N):
        if math.gcd(alpha, N) == 1 and (alpha * alpha - t * alpha + n) % M == 0:
            out.append(alpha)
    return tuple(out)


def count_S(N, u, t, n):
    return len(solution_set(N, u, t, n))


def count_S_plain(N, t, n):
    return count_S(N, 1, t, n)


@lru_cache(maxsize=1 << 13)
def _histograms(N, chi, u, t, n):
    """(B, C) exponent histograms as tuples, for u | N and t, n reduced
    mod N*u; C's terms B(u/d) are read at their own classes mod N*u/d."""
    scale = index_phi1(N) // index_phi1(N // u)
    b = tuple(c * scale for c in chi.counts(solution_set(N, u, t, n)))
    c = list(b)
    for d in divisors(u)[1:]:
        mu = moebius(d)
        if mu:
            M = N * (u // d)
            c = [x + mu * y for x, y in zip(c, _histograms(N, chi, u // d, t % M, n % M)[0])]
    return b, tuple(c)


def B_counts(N, chi, u, t, n):
    """(phi1(N)/phi1(N/u)) * the exponent histogram of chi over the local
    solution set, in ints."""
    if chi.modulus != N:
        raise ValueError("character modulus must equal the level")
    if N % u:
        return [0] * chi.order
    M = N * u
    return list(_histograms(N, chi, u, t % M, n % M)[0])


def B_coeff(N, chi, u, t, n):
    """(phi1(N)/phi1(N/u)) * sum of chi over the local solution set."""
    return chi.value(B_counts(N, chi, u, t, n))


def C_counts(N, chi, u, t, n):
    """Exponent histogram, in ints, of the Moebius inverse of B over the
    divisors of u."""
    if chi.modulus != N:
        raise ValueError("character modulus must equal the level")
    if N % u:
        raise ValueError("u must divide N")
    M = N * u
    return list(_histograms(N, chi, u, t % M, n % M)[1])


def C_coeff(N, chi, u, t, n):
    """Moebius inverse of B over divisors of u, as one CycloNum."""
    return chi.value(C_counts(N, chi, u, t, n))


def _C_fast_local(p, a, i, D):
    """The prime-power table C_{p^a}(p^i, D); b = v_p(D), infinite at D = 0.

    The top entry i = a is p^ceil(a/2) except at shallow 2-adic valuations
    (b = 2a with D/2^b = 3 mod 4, or b = 2a+1), where the Moebius-inverted
    count is -2^(ceil(a/2)-1) instead.  Those keys carry a vanishing
    class-number weight in every trace formula, which is why the simple
    closed form suffices there in print; the corrected value is what direct
    counting gives, validated exhaustively by the acceptance tests.
    """
    if i == 0:
        return 1
    if i == a:
        top = p ** ((a + 1) // 2)
        if p != 2:
            return top
        b = valuation(D, p)
        if b is None or b >= 2 * a + 2:
            return top
        if b == 2 * a + 1 or (D >> b) % 4 == 3:
            return -(top // 2)
        return top
    b = valuation(D, p)
    binf = b is None
    ceil_half = (i + 1) // 2
    floor_half = i // 2
    if p != 2:
        if i % 2 == a % 2:
            if binf or i <= b - a:
                return p**ceil_half - p ** (ceil_half - 1)
            if i == b - a + 1:
                return -(p ** (ceil_half - 1))
            return 0
        if not binf and i == b - a + 1:
            return p**floor_half * legendre(D // p**b, p)
        return 0
    # p == 2
    if i % 2 == a % 2:
        if binf or i <= b - a - 2:
            return 2 ** (ceil_half - 1)
        if i == b - a - 1:
            return -(2 ** (ceil_half - 1))
        if i == b - a:
            return 2 ** (ceil_half - 1) * eps4(D // 2**b)
        return 0
    if not binf and i == b - a + 1:
        d0 = D // 2**b
        if d0 % 4 == 1:
            return 2**floor_half * (1 if d0 % 8 == 1 else -1)
    return 0


def C_fast(N, u, D):
    """Multiplicative closed form with C_coeff(N,1,u,t,n) = |S_N(t,n)| * C_fast."""
    if u < 1 or N % u or D % (u * u):
        return 0
    out = 1
    for p, a in factorize(N):
        out *= _C_fast_local(p, a, valuation(u, p), D)
        if out == 0:
            return 0
    return out


# -- conjugacy-class weights ---------------------------------------------------


def c_class_closed(N, chi, m):
    """Class weight via the closed form B(gcd(content, N), trace, det)."""
    n = mat_det(m)
    validate_query(N, chi, n=n)
    # content 0 (scalars): gcd(0, N) = N
    return B_coeff(N, chi, math.gcd(form_content(quad_form_of(m)), N), mat_trace(m), n)


def c_atkin_closed(N, ell, m):
    """Atkin-Lehner composed class weight, closed form (integer valued):
    delta(gcd(ell, content), 1) times the trivial-character class weight at
    level N/ell, when ell divides the trace."""
    det = mat_det(m)
    validate_query(N, n=det, ell=ell)
    if det % ell:
        raise ValueError("determinant must be divisible by ell")
    if mat_trace(m) % ell or math.gcd(ell, form_content(quad_form_of(m))) != 1:
        return 0
    return int(c_class_closed(N // ell, trivial_character(N // ell), m).as_rational())
