"""Multiplicative arithmetic helpers and the Gegenbauer kernel.

Everything here is exact integer / rational arithmetic.  Factorization is
trial division over a 2-3-5 wheel, which is ample for the desk-scale inputs
this package targets (N, n up to about 10**6).
"""

import math
from fractions import Fraction as QQ
from functools import lru_cache

__all__ = [
    "QQ",
    "gegenbauer",
    "sigma1",
    "sigma1_N",
    "index_phi1",
    "crt_solve",
    "factorize",
    "divisors",
    "moebius",
    "euler_phi",
    "isqrt",
    "is_square",
    "kronecker",
    "legendre",
    "eps4",
    "xgcd",
    "valuation",
    "require_exact_divisor",
    "validate_query",
]

isqrt = math.isqrt

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


# Memo bound, from the distinct keys seen: a Tier-1 run factors 10,500
# integers, a CI command at most 398, and `trace --level 1 --n 1:4000` 4,000.
@lru_cache(maxsize=1 << 14)
def factorize(n):
    """Prime factorization of n >= 1 as a tuple of (p, e) with p increasing.

    Trial division with a 2-3-5 wheel; intended for inputs up to ~10**6
    (worst case sqrt(n) candidate divisors).
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    p, i = 7, 0
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += _WHEEL[i]
        i = (i + 1) % 8
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n):
    """Sorted list of positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def moebius(n):
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n):
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def sigma1(n):
    return sum(divisors(n))


def sigma1_N(N, n):
    """Sum of n/d over divisors d of n coprime to N."""
    if N < 1 or n < 1:
        raise ValueError("sigma1_N expects positive integers")
    return sum(n // d for d in divisors(n) if math.gcd(d, N) == 1)


def index_phi1(N):
    """Index of the level-N congruence subgroup in SL2(Z): N*prod(1+1/p)."""
    out = N
    for p, _ in factorize(N):
        out = out // p * (p + 1)
    return out


def gegenbauer(w, t, n):
    """Coefficient of x^w in 1/(1 - t*x + n*x^2).

    Recurrence p_w = t*p_{w-1} - n*p_{w-2}, p_0 = 1, p_{-1} = 0; this is the
    trace of a (t, n) matrix on the w-th symmetric power.
    """
    if w < 0:
        raise ValueError("gegenbauer needs w >= 0")
    prev, cur = 0, 1
    for _ in range(w):
        prev, cur = cur, t * cur - n * prev
    return cur


def xgcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def require_exact_divisor(N, ell):
    """Raise ValueError unless ell exactly divides N: ell | N, gcd(ell, N/ell) = 1."""
    if ell < 1 or N % ell or math.gcd(ell, N // ell) != 1:
        raise ValueError("ell must be an exact divisor of N")


def validate_query(N, chi=None, k=2, n=1, ell=1):
    """Reject a trace query outside the domain of the formulas with ValueError.

    chi=None marks the trivial-character formulas (Atkin-Lehner composition,
    level-4 specialization), which are defined for even k only.  Given a
    character, the composed operator T_n o W_ell (ell > 1) is defined for the
    trivial one and even k only.  Every default passes, so a caller checks
    only the parameters it has.
    """
    if N < 1 or k < 2 or n < 1:
        raise ValueError("need N >= 1, k >= 2, n >= 1")
    if chi is None:
        if k % 2:
            raise ValueError("need even k >= 2")
    elif chi.modulus != N:
        raise ValueError("character modulus must equal the level")
    require_exact_divisor(N, ell)
    if ell > 1 and chi is not None:
        if not chi.is_trivial():
            raise ValueError("the composed operator is defined for the trivial character only")
        if k % 2:
            raise ValueError("the composed operator needs even weight")


def crt_solve(residues):
    """Simultaneous solution of a list of (value, modulus) congruences.

    Returns (value mod lcm, lcm) or None when the system is inconsistent.
    Moduli must be >= 1; an empty list yields (0, 1).
    """
    r, m = 0, 1
    for a, n in residues:
        if n < 1:
            raise ValueError("moduli must be positive")
        g, p, _ = xgcd(m, n)
        if (a - r) % g:
            return None
        lcm = m // g * n
        r = (r + m * ((a - r) // g % (n // g)) * p) % lcm
        m = lcm
    return r, m


def valuation(n, p):
    """p-adic valuation of n; None encodes +infinity (n == 0)."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_square(n):
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def legendre(a, p):
    """Legendre symbol (a/p), p an odd prime."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def eps4(x):
    """Quadratic character mod 4: 0 on evens, +1 / -1 on 1 / 3 mod 4."""
    if x % 2 == 0:
        return 0
    return 1 if x % 4 == 1 else -1


def kronecker(a, n):
    """Kronecker symbol (a/n) for n > 0."""
    if n <= 0:
        raise ValueError("kronecker implemented for positive n")
    result = 1
    for p, e in factorize(n):
        if p == 2:
            if a % 2 == 0:
                return 0
            s = 1 if a % 8 in (1, 7) else -1
        else:
            s = legendre(a, p)
            if s == 0:
                return 0
        if e % 2:
            result *= s
    return result
