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

The pair satisfies the Moebius-type inversion used throughout the trace
formulas, which the test suite checks for |D| <= 10^4.
"""

import math

from .arith import QQ, euler_phi, is_square, isqrt

__all__ = ["hurwitz_H", "h0", "precompute", "cache_snapshot", "load_cache"]

_H_cache: dict[int, QQ] = {}
_h0_cache: dict[int, QQ] = {}


def _reduced_forms(D, primitive_only=False):
    """Reduced positive definite forms (a, b, c) of discriminant -D, D > 0."""
    out = []
    a = 1
    while 3 * a * a <= D:
        for b in range(-a + 1, a + 1):
            if (b * b + D) % (4 * a):
                continue
            c = (b * b + D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (c == a or b == -a):
                continue  # normalized mate is counted instead
            if primitive_only and math.gcd(math.gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
        a += 1
    return out


def _hurwitz_positive(D):
    total = QQ(0)
    for a, b, c in _reduced_forms(D):
        g = math.gcd(math.gcd(a, b), c)
        d0 = (b * b - 4 * a * c) // (g * g)
        if d0 == -3:
            total += QQ(1, 3)
        elif d0 == -4:
            total += QQ(1, 2)
        else:
            total += 1
    return total


def hurwitz_H(D):
    if D in _H_cache:
        return _H_cache[D]
    if D == 0:
        val = QQ(-1, 12)
    elif D < 0:
        val = QQ(-isqrt(-D), 2) if is_square(-D) else QQ(0)
    elif D % 4 in (1, 2):
        val = QQ(0)
    else:
        val = _hurwitz_positive(D)
    _H_cache[D] = val
    return val


def _unit_count(D):
    if D == -3:
        return 6
    if D == -4:
        return 4
    return 2


def h0(D):
    if D in _h0_cache:
        return _h0_cache[D]
    if D == 0:
        val = QQ(-1, 12)
    elif D > 0:
        val = QQ(-euler_phi(isqrt(D)), 2) if is_square(D) else QQ(0)
    elif D % 4 in (2, 3):
        val = QQ(0)  # not a discriminant
    else:
        val = QQ(2 * len(_reduced_forms(-D, primitive_only=True)), _unit_count(D))
    _h0_cache[D] = val
    return val


def precompute(limit):
    """Batch-fill H(D) and h0(-D) for 0 <= D <= limit in one sweep.

    One pass over reduced (a, b, c) with 4ac - b^2 <= limit; much faster
    than the per-D loops when a whole range is needed.
    """
    sums = [QQ(0)] * (limit + 1)
    prim = [0] * (limit + 1)
    a = 1
    while 3 * a * a <= limit:
        for b in range(-a + 1, a + 1):
            c = a
            while True:
                D = 4 * a * c - b * b
                if D > limit:
                    break
                if D >= 0 and not (b < 0 and (c == a or b == -a)):
                    g = math.gcd(math.gcd(a, b), c)
                    d0 = (b * b - 4 * a * c) // (g * g)
                    if d0 == -3:
                        sums[D] += QQ(1, 3)
                    elif d0 == -4:
                        sums[D] += QQ(1, 2)
                    else:
                        sums[D] += 1
                    if g == 1:
                        prim[D] += 1
                c += 1
        a += 1
    for D in range(limit + 1):
        if D == 0:
            _H_cache[0] = QQ(-1, 12)
            _h0_cache[0] = QQ(-1, 12)
            continue
        if D % 4 in (1, 2):
            _H_cache[D] = QQ(0)
            _h0_cache[-D] = QQ(0)
        else:
            _H_cache[D] = sums[D]
            _h0_cache[-D] = QQ(2 * prim[D], _unit_count(-D))


def cache_snapshot():
    """Rows (kind, D, num, den) of everything cached, deterministically ordered."""
    rows = []
    for D in sorted(_H_cache):
        v = _H_cache[D]
        rows.append(("H", D, int(v.numerator), int(v.denominator)))
    for D in sorted(_h0_cache):
        v = _h0_cache[D]
        rows.append(("h0", D, int(v.numerator), int(v.denominator)))
    return rows


def load_cache(rows):
    """Seed the caches from (kind, D, num, den) rows; values are re-trusted.

    Correctness never depends on this: a poisoned row would be caught by the
    verification suite, and tests compare cached against recomputed values.
    """
    for kind, D, num, den in rows:
        val = QQ(num, den)
        if kind == "H":
            _H_cache[int(D)] = val
        elif kind == "h0":
            _h0_cache[int(D)] = val
        else:
            raise ValueError(f"unknown class-number kind {kind!r}")
