"""Elliptic curves as an outside certificate for tr(T_n | S_2(Gamma_0(N))).

By modularity (Breuil, Conrad, Diamond and Taylor, J. AMS 14, 2001) the
rational newforms of weight 2 and level N are the isogeny classes of
elliptic curves of conductor N.  At the levels below, S_2(N) is spanned by
such newforms, so the trace of T_n is the sum of their a_n.  Here a_p comes
from counting points over F_p on a minimal model, p | N included: the
singular reduction gives a_p = p + 1 - #E(F_p) = +-1 (multiplicative) or 0
(additive).  a_n follows by the Hecke recursion, with no modular form used.

Equations: Cremona, Algorithms for Modular Elliptic Curves, 2nd ed., CUP
1997, Table 1.  A wrong equation shows as a mismatch.
"""

import pytest

from trace_kit.dirichlet import trivial_character
from trace_kit.hecke_operator import build_Tn, build_Tn_infty
from trace_kit.period_oracle import hecke_coset_desc, trace_coboundary, trace_on_W
from trace_kit.trace_formulas import trace_hecke_cusp

# level -> [a1, a2, a3, a4, a6] of one curve per isogeny class of conductor N
CURVES = {
    11: [(0, -1, 1, -10, -20)],  # 11a
    14: [(1, 0, 1, 4, -6)],  # 14a
    15: [(1, 1, 1, -10, -10)],  # 15a
    17: [(1, -1, 1, -1, -14)],  # 17a
    19: [(0, 1, 1, -9, -15)],  # 19a
    20: [(0, 1, 0, 4, 4)],  # 20a
    21: [(1, 0, 0, -4, -1)],  # 21a
    24: [(0, -1, 0, -4, 4)],  # 24a
    26: [(1, 0, 1, -5, -8), (1, -1, 1, -3, 3)],  # 26a, 26b
    27: [(0, 0, 1, 0, -7)],  # 27a
    32: [(0, 0, 0, 4, 0)],  # 32a
    36: [(0, 0, 0, 0, 1)],  # 36a
    37: [(0, 0, 1, -1, 0), (0, 1, 1, -23, -50)],  # 37a, 37b
    49: [(1, -1, 0, -2, -1)],  # 49a
}
CLOSED_MAX_N = 200
PERIOD_MAX_N = 30


def _factor(n):
    """{p: e} by trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _points(curve, p):
    """#E(F_p) with the point at infinity, singular points included."""
    a1, a2, a3, a4, a6 = curve
    if p == 2:
        return 1 + sum(
            (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0 for x in range(2) for y in range(2)
        )
    count = 1
    for x in range(p):
        # (2y + a1 x + a3)^2 = 4(x^3 + a2 x^2 + a4 x + a6) + (a1 x + a3)^2
        r = (4 * (x**3 + a2 * x * x + a4 * x + a6) + (a1 * x + a3) ** 2) % p
        count += 1 if r == 0 else 2 if pow(r, (p - 1) // 2, p) == 1 else 0
    return count


def _coefficients(N, curve, top):
    """a_1..a_top of the curve of conductor N, index 0 unused."""
    a = [0, 1] + [None] * (top - 1)
    for n in range(2, top + 1):
        f = _factor(n)
        if len(f) > 1:
            p, e = next(iter(f.items()))
            a[n] = a[p**e] * a[n // p**e]
            continue
        ((p, e),) = f.items()
        ap = p + 1 - _points(curve, p) if e == 1 else a[p]
        a[n] = ap if e == 1 else ap * a[n // p] - (p * a[n // (p * p)] if N % p else 0)
    return a


def _trace_table(N, top):
    """sum of a_n over the isogeny classes of conductor N, n <= top."""
    tables = [_coefficients(N, curve, top) for curve in CURVES[N]]
    return [sum(col) for col in zip(*tables)]


def test_point_counts_give_the_known_coefficients():
    # 11a is the eta product q prod (1 - q^n)^2 (1 - q^(11 n))^2
    assert _coefficients(11, CURVES[11][0], 12)[1:] == [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2]
    # bad primes: 11a splits at 11, 14a is multiplicative at 2 and 7, 27a additive at 3
    assert _coefficients(11, CURVES[11][0], 11)[11] == 1
    assert [_coefficients(14, CURVES[14][0], 7)[p] for p in (2, 7)] == [-1, 1]
    assert _coefficients(27, CURVES[27][0], 9)[3] == _coefficients(27, CURVES[27][0], 9)[9] == 0


@pytest.mark.parametrize("N", sorted(CURVES))
def test_closed_route_matches_elliptic_curves(N):
    chi = trivial_character(N)
    want = _trace_table(N, CLOSED_MAX_N)
    got = [trace_hecke_cusp(N, chi, 2, n).value for n in range(1, CLOSED_MAX_N + 1)]
    assert [n for n in range(1, CLOSED_MAX_N + 1) if got[n - 1] != want[n]] == []


@pytest.mark.parametrize("N", sorted(CURVES))
def test_period_route_matches_elliptic_curves(N):
    # the cusp trace on the period space is (full trace - Eisenstein trace)/2
    chi = trivial_character(N)
    want = _trace_table(N, PERIOD_MAX_N)
    for n in range(1, PERIOD_MAX_N + 1):
        sigma = hecke_coset_desc(N, n)
        full = trace_on_W(N, chi, 0, sigma, build_Tn(n))
        eis = trace_coboundary(N, chi, 0, sigma, build_Tn_infty(n))
        assert full - eis == 2 * want[n], (N, n)
