import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_kit.arith import QQ, euler_phi
from trace_kit.dirichlet import (
    CycloNum,
    _unit_group,
    cyclo_inverse,
    cyclo_mul,
    cyclotomic_poly,
    enumerate_characters,
    mult_matrix,
    trivial_character,
    zeta_power,
)


def test_enumeration_examples():
    assert len(enumerate_characters(1)) == 1
    assert enumerate_characters(1)[0](5) == 1

    chars4 = enumerate_characters(4)
    assert len(chars4) == 2
    nontriv = [c for c in chars4 if not c.is_trivial()][0]
    assert nontriv(3) == -1

    chars5 = enumerate_characters(5)
    assert sorted(c.order for c in chars5) == [1, 2, 4, 4]
    o4 = [c for c in chars5 if c.order == 4][0]
    val = o4(2)
    # 2 generates the units mod 5, so an order-4 character sends it to +-i
    assert val * val == -1


def test_enumeration_count_and_determinism():
    for N in (1, 2, 3, 4, 6, 8, 9, 12, 16, 24, 36, 60):
        chars = enumerate_characters(N)
        assert len(chars) == euler_phi(N)
        assert chars[0].is_trivial()
        labels = [c.label() for c in chars]
        assert labels == [f"{N}.{i}" for i in range(len(chars))]


def test_conductor_examples():
    assert trivial_character(4).conductor() == 1
    nontriv4 = [c for c in enumerate_characters(4) if not c.is_trivial()][0]
    assert nontriv4.conductor() == 4
    lifted = [c for c in enumerate_characters(8) if c.conductor() == 4]
    assert len(lifted) == 1
    assert lifted[0](7) == nontriv4(7)


def test_evaluate_examples():
    assert not trivial_character(6)(3)
    nontriv4 = [c for c in enumerate_characters(4) if not c.is_trivial()][0]
    assert nontriv4(7) == -1
    for N in (1, 4, 5, 12):
        for chi in enumerate_characters(N):
            assert chi(1) == 1


def test_cyclo_ops_examples():
    z4 = CycloNum.root_of_unity(4)
    assert z4 * z4 == -1
    z3 = CycloNum.root_of_unity(3)
    assert 1 + z3 + z3 * z3 == 0
    x = CycloNum.from_rational(QQ(-1, 12))
    assert x * 12 + 1 == 0
    assert x + x == CycloNum.from_rational(QQ(-1, 6))


def test_orthogonality():
    for N in range(1, 61):
        for chi in enumerate_characters(N):
            total = CycloNum.zero(chi.order)
            for x in range(N):
                total = total + chi(x)
            if chi.is_trivial():
                assert total == euler_phi(N)
            else:
                assert not total


def test_multiplicativity_random():
    rng = random.Random(17)
    for N in (5, 7, 9, 12, 15, 16, 21, 24, 40, 60):
        for chi in enumerate_characters(N):
            for _ in range(10):
                x, y = rng.randrange(N), rng.randrange(N)
                assert chi(x * y) == chi(x) * chi(y)


def test_parity_flag():
    for N in range(1, 61):
        for chi in enumerate_characters(N):
            val = chi(N - 1 if N > 1 else 1)
            assert val == chi.parity()


def test_eval_mod_induced():
    # the induced character through a divisor modulus: unit lifts agree,
    # non-units vanish
    for N in (4, 6, 8, 12):
        for chi in enumerate_characters(N):
            c = chi.conductor()
            for M0 in (d for d in range(1, N + 1) if N % d == 0 and d % c == 0):
                for x in range(2 * N):
                    v = chi.eval_mod(x, M0)
                    if math.gcd(x, M0) > 1:
                        assert not v
                    elif math.gcd(x, N) == 1:
                        assert v == chi(x)


def test_reduction_float_sanity():
    rng = random.Random(23)
    for m in (3, 4, 5, 7, 8, 10, 12):
        for _ in range(20):
            a = CycloNum.root_of_unity(m, rng.randrange(m)) + QQ(rng.randint(-3, 3), rng.randint(1, 5))
            b = CycloNum.root_of_unity(m, rng.randrange(m)) * QQ(rng.randint(-3, 3), rng.randint(1, 4))
            exact = (a * b + a).approx_complex()
            floaty = a.approx_complex() * b.approx_complex() + a.approx_complex()
            assert abs(exact - floaty) < 1e-9


def test_mult_matrix_float_sanity():
    # the multiplication matrix and zeta powers of the coefficient-tuple
    # kernel, checked against complex floats
    rng = random.Random(29)
    for m in (1, 2, 3, 4, 5, 7, 8, 10, 12):
        z = cmath.exp(2j * cmath.pi / m)
        for k in range(2 * m):
            assert abs(CycloNum(m, zeta_power(m, k)).approx_complex() - z**k) < 1e-9
        for _ in range(10):
            a = CycloNum.root_of_unity(m, rng.randrange(m)) + QQ(rng.randint(-3, 3), rng.randint(1, 5))
            b = CycloNum.root_of_unity(m, rng.randrange(m)) * QQ(rng.randint(-3, 3), rng.randint(1, 4))
            rows = mult_matrix(m, a.coeffs)
            prod = tuple(sum(q * y for q, y in zip(row, b.coeffs)) for row in rows)
            assert prod == cyclo_mul(m, a.coeffs, b.coeffs)
            floaty = a.approx_complex() * b.approx_complex()
            assert abs(CycloNum(m, prod).approx_complex() - floaty) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 4, 5, 6, 8, 10, 12]),
    st.integers(0, 11),
    st.integers(0, 11),
    st.integers(-4, 4),
)
def test_cyclo_ring_axioms(m, i, j, q):
    a = CycloNum.root_of_unity(m, i) + q
    b = CycloNum.root_of_unity(m, j) - q
    assert a * b == b * a
    assert a * (b + 1) == a * b + a
    if b:
        assert (a * b) / b == a


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # degree phi(m), and x^m - 1 factors through them
    for m in range(1, 40):
        assert len(cyclotomic_poly(m)) == euler_phi(m) + 1


def test_table_on_generators_and_units():
    # chi(g_i) = zeta_{s_i}^{e_i}, read in units of zeta_order; None exactly
    # on the non-units
    for N in range(1, 61):
        for chi in enumerate_characters(N):
            tab = chi.table()
            assert len(tab) == N
            assert [x for x in range(N) if tab[x] is None] == [x for x in range(N) if math.gcd(x, N) > 1]
            for (g, s), e in zip(_unit_group(N), chi.exponents):
                assert tab[g] == e * chi.order // s
                assert chi.value_exponent(g - N) == tab[g]


def test_table_multiplicative_on_all_unit_pairs():
    for N in range(1, 31):
        units = [x for x in range(N) if math.gcd(x, N) == 1]
        for chi in enumerate_characters(N):
            tab, m = chi.table(), chi.order
            assert all(tab[x * y % N] == (tab[x] + tab[y]) % m for x in units for y in units)


def test_conductor_by_definition():
    # the least c | N with chi(x) constant on each class of units mod c
    for N in range(1, 61):
        units = [x for x in range(N) if math.gcd(x, N) == 1] or [0]
        for chi in enumerate_characters(N):
            factors = []
            for c in range(1, N + 1):
                if N % c == 0:
                    seen = {}
                    if all(seen.setdefault(x % c, chi(x)) == chi(x) for x in units):
                        factors.append(c)
            assert chi.conductor() == min(factors), (N, chi.exponents)


def test_total_equals_sum_of_values():
    rng = random.Random(31)
    for N in (1, 5, 12, 13, 16, 41, 60):
        for chi in enumerate_characters(N)[:6]:
            for size in (0, 1, 7, 40):
                xs = [rng.randint(-3 * N, 3 * N) for _ in range(size)]
                xs += xs[: size // 3]  # repeats
                expected = CycloNum.zero(chi.order)
                for x in xs:
                    expected = expected + chi(x)
                got = chi.total(xs)
                assert got.order == chi.order and got == expected, (N, chi.exponents, xs)
                counts = chi.counts(xs)
                assert len(counts) == chi.order
                for k, c in enumerate(counts):
                    assert c == sum(1 for x in xs if chi.value_exponent(x) == k), (N, chi.exponents, k)


def test_cyclo_inverse_by_norm():
    rng = random.Random(37)
    for m in range(1, 61):
        deg = euler_phi(m)
        with pytest.raises(ZeroDivisionError):
            cyclo_inverse(m, (Fraction(0),) * deg)
        for _ in range(3):
            a = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(deg)]
            if not any(a):
                a[0] = Fraction(1)
            prod = cyclo_mul(m, cyclo_inverse(m, tuple(a)), tuple(a))
            assert prod == (1,) + (0,) * (deg - 1), (m, a)


def test_hash_agrees_with_lifts():
    # equal values hash equal whatever their declared order
    assert len({CycloNum.root_of_unity(3), CycloNum.root_of_unity(6, 2)}) == 1
    assert len({CycloNum.root_of_unity(4), CycloNum.root_of_unity(8, 2)}) == 1
    assert hash(CycloNum.from_rational(QQ(-1, 12), 5)) == hash(QQ(-1, 12))
    rng = random.Random(41)
    for m in range(1, 25):
        a = CycloNum(m, [QQ(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(euler_phi(m))])
        for m2 in range(1, 25):
            lifted = a._lift(math.lcm(m, m2))
            assert lifted == a and len({a, lifted}) == 1, (m, m2)
