"""Hurwitz class numbers H(D) and primitive weighted class numbers h0(D).

Both are extended to all integer arguments:

  H(D):  D > 0 -> weighted count of positive definite forms of disc -D
                  (all forms, imprimitive included; weights 1/2 and 1/3 at
                  the two exceptional reduced classes);
         D = 0 -> -1/12;
         D < 0 -> -u/2 when D = -u^2, else 0.

  h0(D): D < 0 -> 2 h(D) / w(D) over primitive forms;
         D = 0 -> -1/12;
         D = u^2 > 0 -> -phi(u)/2, else 0.

Both are whole twelfths, stored and read as ints (`twelve_H`, `twelve_h0`);
`hurwitz_H`/`h0` divide by 12 at the API.  For D > 0 both come from one
count of the reduced forms of discriminant -D: `precompute(limit)` sweeps
0 <= D <= limit into two int arrays, which only a larger sweep replaces, and
a D above that top is walked alone through a memo of at most 2^14 entries.
"""

import math
from array import array
from functools import lru_cache

from .arith import QQ, euler_phi, is_square, isqrt

__all__ = ["hurwitz_H", "h0", "precompute", "twelve_H", "twelve_h0"]

# 12*H(D) and the primitive form count at 0 <= D <= top, from one sweep
_twelve_h = _prim = array("q", [0])


def _twelfths(a, b, c):
    """12 times the weight of the reduced form (a, b, c): the multiples of
    (1, 1, 1) weigh 1/3, those of (1, 0, 1) weigh 1/2."""
    if c == a and b in (0, a):
        return 6 if b == 0 else 4
    return 12


def _class_counts(D):
    """(12*H(D), primitive form count) over the reduced forms of disc -D, D > 0."""
    twelve_h = prim = 0
    a = 1
    while 3 * a * a <= D:
        # b^2 = -D (mod 4a) fixes b's parity; (a, -b, c) is reduced as well
        # unless b = 0, b = a or c = a
        for b in range(D % 2, a + 1, 2):
            c, r = divmod(b * b + D, 4 * a)
            if r or c < a:
                continue
            mult = 1 if b in (0, a) or c == a else 2
            twelve_h += mult * _twelfths(a, b, c)
            if math.gcd(a, b, c) == 1:
                prim += mult
        a += 1
    return twelve_h, prim


def _class_sweep(limit):
    """Int arrays of 12*H(D) and of the primitive form count for 0 <= D <= limit."""
    twelve_h = [0] * (limit + 1)
    prim = [0] * (limit + 1)
    a = 1
    while 3 * a * a <= limit:
        for b in range(a + 1):
            # c = a first: the only c with a weight below 1 or without (a, -b, c)
            D = 4 * a * a - b * b
            mult = 2 if 0 < b < a else 1
            g = math.gcd(a, b)
            if D <= limit:
                twelve_h[D] += _twelfths(a, b, a)
                prim[D] += g == 1
            for c in range(a + 1, (limit + b * b) // (4 * a) + 1):
                D = 4 * a * c - b * b
                twelve_h[D] += 12 * mult
                if g == 1 or math.gcd(g, c) == 1:
                    prim[D] += mult
        a += 1
    return array("q", twelve_h), array("q", prim)


@lru_cache(maxsize=1 << 14)
def _walk(D):
    """`_class_counts(D)` for a discriminant -D above the swept top."""
    return _class_counts(D)


def _counts(D):
    """(12*H(D), primitive count) above the swept top; D = 1, 2 (mod 4) takes no memo entry."""
    return _walk(D) if D % 4 in (0, 3) else (0, 0)


def twelve_H(D):
    """12*H(D) as an int, for every integer D."""
    if D > 0:
        return _twelve_h[D] if D < len(_twelve_h) else _counts(D)[0]
    if D == 0:
        return -1
    return -6 * isqrt(-D) if is_square(-D) else 0


def twelve_h0(D):
    """12*h0(D) as an int, for every integer D."""
    if D < 0:
        prim = _prim[-D] if -D < len(_prim) else _counts(-D)[1]
        # h0(D) = 2*prim/w, with w = 6 units at D = -3, 4 at D = -4, else 2
        return prim * (12 if D < -4 else 4 if D == -3 else 6)
    if D == 0:
        return -1
    return -6 * euler_phi(isqrt(D)) if is_square(D) else 0


def hurwitz_H(D):
    return QQ(twelve_H(D), 12)


def h0(D):
    return QQ(twelve_h0(D), 12)


def precompute(limit):
    """Sweep every 0 <= D <= limit into the tables, unless they reach as far."""
    global _twelve_h, _prim
    if limit >= len(_twelve_h):
        _twelve_h, _prim = _class_sweep(limit)
