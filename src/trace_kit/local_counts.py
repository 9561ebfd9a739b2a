"""Local solution counts for the level-N closed formulas.

S_N(u,t,n) counts units alpha mod N with alpha^2 - t*alpha + n = 0 (mod N*u);
B is its character-weighted, index-scaled version, C its Moebius inverse.
B_counts and C_counts give both as exponent histograms of chi in ints.  Since
u | N makes u^2 divide N*u, all three depend on t and n only mod N*u: the
histograms are memoized once per residue class, and the closed trace formulas
sum their int weights by class and read each class's histogram once.
C_fast is the closed multiplicative evaluation of the trivial-character C
via prime-power tables.
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
    valuation,
)

__all__ = [
    "solution_set",
    "B_counts",
    "C_counts",
    "C_fast",
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


def C_counts(N, chi, u, t, n):
    """Exponent histogram, in ints, of the Moebius inverse of B over the
    divisors of u."""
    if chi.modulus != N:
        raise ValueError("character modulus must equal the level")
    if N % u:
        raise ValueError("u must divide N")
    M = N * u
    return list(_histograms(N, chi, u, t % M, n % M)[1])


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
    """Multiplicative closed form: for chi trivial mod N, C_counts(N, chi, u,
    t, n) is [len(solution_set(N, 1, t, n)) * C_fast(N, u, t^2 - 4n)]."""
    if u < 1 or N % u or D % (u * u):
        return 0
    out = 1
    for p, a in factorize(N):
        out *= _C_fast_local(p, a, valuation(u, p), D)
        if out == 0:
            return 0
    return out
