import math
import random
from collections import Counter

import pytest

import trace_kit.local_counts as lc
from trace_kit.arith import divisors, index_phi1, moebius
from trace_kit.dirichlet import enumerate_characters, trivial_character
from trace_kit.local_counts import B_counts, C_counts, C_fast, solution_set
from trace_kit.matrix_forms import conjugate, mat_det

from class_weights import c_atkin_closed, c_atkin_direct, c_class_closed, c_class_direct


def test_count_examples():
    assert len(solution_set(4, 1, 2, 1)) == 2
    assert sorted(solution_set(4, 1, 2, 1)) == [1, 3]
    assert len(solution_set(4, 2, 2, 1)) == 1
    assert solution_set(4, 2, 2, 1) == (1,)
    for t in (-3, 0, 5):
        for n in (1, 2, 7):
            assert len(solution_set(1, 1, t, n)) == 1


def test_invalid_keys_are_zero():
    assert len(solution_set(4, 3, 2, 1)) == 0  # u does not divide N
    assert len(solution_set(4, 2, 1, 1)) == 0  # u^2 does not divide t^2-4n
    chi4 = trivial_character(4)
    assert not chi4.value(B_counts(4, chi4, 2, 1, 1))


def test_welldefinedness_debug_assert():
    # on a valid key, whether a unit alpha solves alpha^2 - t alpha + n = 0
    # mod N*u depends only on alpha mod N: all u lifts alpha + kN agree, and
    # solution_set holds alpha exactly when they solve; invalid keys are empty
    for N in (2, 3, 4, 6, 8, 9, 12):
        for u in divisors(N):
            M = N * u
            for t in range(-6, 7):
                for n in range(1, 13):
                    sols = solution_set(N, u, t, n)
                    if (t * t - 4 * n) % (u * u):
                        assert sols == (), (N, u, t, n)
                        continue
                    for alpha in range(N):
                        if math.gcd(alpha, N) != 1:
                            continue
                        lifts = {
                            ((alpha + k * N) ** 2 - t * (alpha + k * N) + n) % M == 0
                            for k in range(u)
                        }
                        assert len(lifts) == 1, (N, u, t, n, alpha)
                        assert (alpha in sols) == lifts.pop(), (N, u, t, n, alpha)


def test_B_examples():
    chi1 = trivial_character(1)
    assert chi1.value(B_counts(1, chi1, 1, 5, 7)) == 1
    eps4 = [c for c in enumerate_characters(4) if not c.is_trivial()][0]
    assert not eps4.value(B_counts(4, eps4, 1, 2, 1))  # chi(1) + chi(3) = 0
    for N in (2, 3, 4, 6):
        chiN = trivial_character(N)
        assert chiN.value(B_counts(N, chiN, N, 2, 1)) == index_phi1(N)


def test_C_examples_and_inversion():
    chi6 = trivial_character(6)
    for t in range(-4, 5):
        for n in range(1, 10):
            assert chi6.value(C_counts(6, chi6, 1, t, n)) == chi6.value(B_counts(6, chi6, 1, t, n))
            for u in divisors(6):
                total = chi6.value(C_counts(6, chi6, 1, t, n)) * 0
                for d in divisors(u):
                    total = total + chi6.value(C_counts(6, chi6, d, t, n))
                assert total == chi6.value(B_counts(6, chi6, u, t, n))
            # squarefree level: C at the full level is |S|*u on valid keys
            if (t * t - 4 * n) % 36 == 0:
                assert chi6.value(C_counts(6, chi6, 6, t, n)) == len(solution_set(6, 1, t, n)) * 6


def _brute_B(N, chi, u, t, n):
    """B_counts by a walk over alpha mod N*u that reads no memo; it checks
    on the way that a unit mod N solves at all u of its lifts or at none."""
    if (t * t - 4 * n) % (u * u):
        return [0] * chi.order
    M = N * u
    lifts = Counter(a % N for a in range(M) if math.gcd(a, N) == 1 and (a * a - t * a + n) % M == 0)
    assert set(lifts.values()) <= {u}, (N, u, t, n)
    scale = index_phi1(N) // index_phi1(N // u)
    hist = [0] * chi.order
    for alpha in lifts:
        hist[chi.value_exponent(alpha)] += scale
    return hist


def _brute_C(N, chi, u, t, n):
    acc = [0] * chi.order
    for d in divisors(u):
        acc = [x + moebius(d) * y for x, y in zip(acc, _brute_B(N, chi, u // d, t, n))]
    return acc


def test_local_counts_depend_only_on_the_class_mod_N_u():
    # every N <= 12, u | N and character mod N, at random (t, n) of both
    # signs and at a shift of each by multiples of N*u, with more classes
    # than the memo holds and the memo cleared between the two passes
    rng = random.Random(25)
    cases = []
    for N in range(1, 13):
        for chi in enumerate_characters(N):
            for u in divisors(N):
                M = N * u
                cases += [(N, chi, u, rng.randrange(-5 * M, 5 * M), rng.randrange(-5 * M, 5 * M)) for _ in range(90)]
    classes = {(N, chi, u, t % (N * u), n % (N * u)) for N, chi, u, t, n in cases}
    assert len(classes) > lc._histograms.cache_info().maxsize
    lc._histograms.cache_clear()
    first = [(B_counts(N, chi, u, t, n), C_counts(N, chi, u, t, n)) for N, chi, u, t, n in cases]
    lc._histograms.cache_clear()
    solution_set.cache_clear()
    for (N, chi, u, t, n), (b, c) in zip(cases, first):
        M = N * u
        ts, ns = t + rng.choice((-3, -1, 1, 2)) * M, n + rng.choice((-2, 0, 1, 4)) * M
        assert b == _brute_B(N, chi, u, t, n), (N, chi, u, t, n)
        assert c == _brute_C(N, chi, u, t, n), (N, chi, u, t, n)
        assert B_counts(N, chi, u, ts, ns) == b and C_counts(N, chi, u, ts, ns) == c, (N, chi, u, t, n)
    # the memo hands out copies
    out = C_counts(12, trivial_character(12), 2, 2, 1)
    out[0] += 1
    assert C_counts(12, trivial_character(12), 2, 2, 1) == [out[0] - 1]


def test_C_fast_examples():
    for N in (2, 3, 4, 9, 12):
        assert C_fast(N, 1, 0) == 1
        assert C_fast(N, 1, -4) == 1
    # top entry at deep valuation
    for p, a in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1)):
        deep = p ** (2 * a + 2)
        assert C_fast(p**a, p**a, deep * 4) == p ** ((a + 1) // 2)
        assert C_fast(p**a, p**a, 0) == p ** ((a + 1) // 2)
    # squarefree law on discriminant-like keys
    for N in (6, 10, 15, 30):
        for u in divisors(N):
            for D0 in (0, 1, 4, -4, -8, 12, -347):
                assert C_fast(N, u, D0 * u * u) == u, (N, u, D0)


def test_C_fast_matches_moebius_inverse():
    for p in (2, 3):
        for a in (1, 2, 3):
            N = p**a
            chiN = trivial_character(N)
            for t in range(-8, 9):
                for n in range(1, 16):
                    D = t * t - 4 * n
                    for i in range(a + 1):
                        u = p**i
                        if D % (u * u):
                            continue
                        brute = chiN.value(C_counts(N, chiN, u, t, n)).as_rational()
                        assert brute == len(solution_set(N, 1, t, n)) * C_fast(N, u, D)


def test_c_class_examples():
    ident = (1, 0, 0, 1)
    for N in (1, 2, 3, 4, 6, 8):
        chiN = trivial_character(N)
        assert c_class_closed(N, chiN, ident) == index_phi1(N)
        assert c_class_direct(N, chiN, ident) == index_phi1(N)
    chi1 = trivial_character(1)
    for m in ((1, 0, 0, 5), (2, 1, 3, 4), (0, -1, 1, 0)):
        assert c_class_closed(1, chi1, m) == 1
    # N=2 witness with S: alpha^2 + 1 = 0 mod 2 has alpha = 1
    chi2 = trivial_character(2)
    s = (0, -1, 1, 0)
    assert c_class_direct(2, chi2, s) == c_class_closed(2, chi2, s)


def test_c_class_direct_vs_closed_grid():
    rng = random.Random(29)
    for N in (1, 2, 3, 4, 6, 8, 9, 12):
        for chi in enumerate_characters(N):
            seen = 0
            while seen < 12:
                m = tuple(rng.randint(-8, 8) for _ in range(4))
                if not 0 < mat_det(m) <= 12:
                    continue
                seen += 1
                assert c_class_direct(N, chi, m) == c_class_closed(N, chi, m), (N, chi.label(), m)


def test_c_class_depends_only_on_invariants():
    # equality under unimodular conjugation (same content/trace/det)
    rng = random.Random(31)
    from trace_kit.matrix_forms import S, T

    for N in (3, 4, 6):
        chi = enumerate_characters(N)[-1]
        seen = 0
        while seen < 10:
            m = tuple(rng.randint(-6, 6) for _ in range(4))
            if not 0 < mat_det(m) <= 10:
                continue
            seen += 1
            base = c_class_closed(N, chi, m)
            w = m
            for _ in range(4):
                w = conjugate(rng.choice((S, T)), w)
            assert c_class_closed(N, chi, w) == base
            assert c_class_direct(N, chi, w) == base


def test_c_class_sign_scaling():
    from trace_kit.matrix_forms import mat_neg

    for N in (3, 4, 5, 8):
        for chi in enumerate_characters(N):
            rng = random.Random(37)
            seen = 0
            while seen < 8:
                m = tuple(rng.randint(-6, 6) for _ in range(4))
                if not 0 < mat_det(m) <= 9:
                    continue
                seen += 1
                lhs = c_class_closed(N, chi, mat_neg(m))
                rhs = c_class_closed(N, chi, m) * chi.parity()
                assert lhs == rhs


def test_c_atkin_examples():
    # ell = 1 reduces to the plain class weight with trivial character
    for N in (1, 4, 6):
        chiN = trivial_character(N)
        rng = random.Random(41)
        seen = 0
        while seen < 8:
            m = tuple(rng.randint(-6, 6) for _ in range(4))
            if not 0 < mat_det(m) <= 8:
                continue
            seen += 1
            assert c_atkin_closed(N, 1, m) == c_class_closed(N, chiN, m).as_rational()
    # ell not dividing the trace: zero
    assert c_atkin_closed(6, 2, (1, 0, 0, 2)) == 0  # trace 3, ell = 2
    # ell dividing the content kills the weight (ell > 1)
    m = (2, 0, 0, 2)  # det 4 = 2*2, trace 4, content 2
    assert c_atkin_closed(2, 2, m) == 0


def test_c_atkin_direct_vs_closed():
    for N, ell in ((2, 2), (3, 3), (4, 1), (6, 2), (6, 3), (6, 6), (12, 3), (12, 4)):
        for n in range(1, 7):
            rng = random.Random(100 * N + ell)
            seen = 0
            while seen < 8:
                m = tuple(rng.randint(-8, 8) for _ in range(4))
                if mat_det(m) != n * ell:
                    continue
                seen += 1
                assert c_atkin_direct(N, ell, m) == c_atkin_closed(N, ell, m), (N, ell, m)


def test_c_atkin_invalid_factorization():
    with pytest.raises(ValueError):
        c_atkin_closed(4, 2, (2, 0, 0, 1))  # gcd(2, 4/2) != 1


@pytest.mark.parametrize("N, ell", [(6, 0), (6, -2), (6, 4), (12, 2)])
@pytest.mark.parametrize("weight", [c_atkin_closed, c_atkin_direct])
def test_c_atkin_rejects_non_exact_ell(weight, N, ell):
    with pytest.raises(ValueError, match="ell must be an exact divisor of N"):
        weight(N, ell, (2, 1, 0, 1))


def test_class_weights_validate_their_query():
    chi2 = trivial_character(2)
    ident = (1, 0, 0, 1)
    for weight in (c_class_closed, c_class_direct):
        with pytest.raises(ValueError, match="modulus"):
            weight(4, chi2, ident)
        with pytest.raises(ValueError, match="n >= 1"):
            weight(2, chi2, (0, 1, 1, 0))
    for weight in (c_atkin_closed, c_atkin_direct):
        with pytest.raises(ValueError, match="n >= 1"):
            weight(3, 1, (0, 1, 1, 0))
        with pytest.raises(ValueError, match="n >= 1"):
            weight(6, 2, (0, 0, 0, 0))
