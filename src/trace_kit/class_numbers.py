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

For D > 0 both are counted together in integers (12*H(D) and the primitive
reduced forms of discriminant -D), by a per-D walk or, for a range, by the
one sweep of `precompute`; the tests check the two walks against each other.
"""

import math

from .arith import QQ, euler_phi, is_square, isqrt

__all__ = ["hurwitz_H", "h0", "precompute", "twelfths"]

_H_cache: dict[int, QQ] = {}
_h0_cache: dict[int, QQ] = {}
_ZERO = QQ(0)


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
    """Lists of 12*H(D) and of the primitive form count for 0 <= D <= limit."""
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
    return twelve_h, prim


def _store(D, twelve_h, prim):
    _H_cache[D] = QQ(twelve_h, 12)
    # h0(-D) = 2*prim/w, with w = 6 units at D = 3, 4 at D = 4, else 2
    _h0_cache[-D] = QQ(prim, {3: 3, 4: 2}.get(D, 1))


def hurwitz_H(D):
    if D not in _H_cache:
        if D > 0:
            # -D is a discriminant only for D = 0, 3 (mod 4); the others are
            # 0 and take no entry
            if D % 4 in (1, 2):
                return _ZERO
            _store(D, *_class_counts(D))
        elif D == 0:
            _H_cache[D] = QQ(-1, 12)
        else:
            _H_cache[D] = QQ(-isqrt(-D), 2) if is_square(-D) else _ZERO
    return _H_cache[D]


def h0(D):
    if D not in _h0_cache:
        if D < 0:
            if -D % 4 in (1, 2):
                return _ZERO
            _store(-D, *_class_counts(-D))
        elif D == 0:
            _h0_cache[D] = QQ(-1, 12)
        else:
            _h0_cache[D] = QQ(-euler_phi(isqrt(D)), 2) if is_square(D) else _ZERO
    return _h0_cache[D]


def twelfths(q):
    """12*q as an int, for q a value of H or h0; ArithmeticError when 12*q
    is not an integer, so that no value is truncated."""
    if 12 % q.denominator:
        raise ArithmeticError(f"{q} is not a whole number of twelfths")
    return q.numerator * (12 // q.denominator)


def precompute(limit):
    """Fill H(D) and h0(-D) for every 0 < D <= limit by one sweep."""
    twelve_h, prim = _class_sweep(limit)
    for D in range(1, limit + 1):
        if D % 4 in (0, 3):
            _store(D, twelve_h[D], prim[D])
