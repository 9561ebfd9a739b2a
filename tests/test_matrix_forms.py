import random
from math import isqrt

import pytest

from trace_kit.arith import QQ, sigma1
from trace_kit.class_numbers import hurwitz_H
from trace_kit.matrix_forms import (
    S,
    T,
    U,
    class_label,
    conjugate,
    epsilon,
    form_disc,
    form_neg,
    mat_det,
    mat_inv_unimodular,
    mat_mul,
    mat_neg,
    mat_trace,
    matrix_with_form,
    proj_canonical,
    quad_form_of,
    reduce_form,
    stab_order,
)


_GENS = (S, (0, 1, -1, 0), T, (1, -1, 0, 1))  # S, S^-1, T, T^-1 (up to sign)


def conjugacy_search(m1, m2, depth=8, cap=200000):
    """Bidirectional BFS deciding conjugacy by generator words of length <= depth.

    Reference oracle for the class labels: exhaustive over words in S, T and
    their inverses.
    """
    a = proj_canonical(m1)
    b = proj_canonical(m2)
    if mat_det(a) != mat_det(b):
        return False
    if a == b:
        return True
    front_a, front_b = {a}, {b}
    seen_a, seen_b = {a}, {b}
    for _ in range(depth):
        # expand the smaller frontier
        if len(front_a) > len(front_b):
            front_a, front_b = front_b, front_a
            seen_a, seen_b = seen_b, seen_a
        nxt = set()
        for m in front_a:
            for g in _GENS:
                c = proj_canonical(conjugate(g, m))
                if c in seen_b:
                    return True
                if c not in seen_a:
                    seen_a.add(c)
                    nxt.add(c)
        if not nxt or len(seen_a) + len(seen_b) > cap:
            front_a = nxt
            break
        front_a = nxt
    return bool(front_a & seen_b)


def test_proj_canonical_examples():
    assert proj_canonical((-1, 0, 0, -1)) == (1, 0, 0, 1)
    assert proj_canonical((0, -1, 1, 0)) == (0, 1, -1, 0)
    assert proj_canonical((2, 3, 0, 1)) == (2, 3, 0, 1)


def test_proj_canonical_involution_quotient():
    rng = random.Random(7)
    count = 0
    while count < 200:
        m = tuple(rng.randint(-9, 9) for _ in range(4))
        if mat_det(m) <= 0:
            continue
        count += 1
        assert proj_canonical(mat_neg(m)) == proj_canonical(m)
        assert proj_canonical(proj_canonical(m)) == proj_canonical(m)


def test_proj_canonical_rejects_bad_det():
    with pytest.raises(ValueError):
        proj_canonical((1, 0, 0, -1))


def test_quad_form_examples():
    assert quad_form_of(U) == (1, -1, 1) and form_disc(quad_form_of(U)) == -3
    assert quad_form_of(S) == (1, 0, 1) and form_disc(quad_form_of(S)) == -4
    assert quad_form_of((3, 0, 0, 3)) == (0, 0, 0)


def test_disc_identity_exhaustive():
    for a in range(-5, 6):
        for b in range(-5, 6):
            for c in range(-5, 6):
                for d in range(-5, 6):
                    m = (a, b, c, d)
                    if mat_det(m) > 0:
                        assert form_disc(quad_form_of(m)) == mat_trace(m) ** 2 - 4 * mat_det(m)


def test_reduce_form_examples():
    assert reduce_form((1, 0, 1)) == ("def", 1, 1, 0, 1)
    assert reduce_form((2, 2, 3)) == ("def", 1, 2, 2, 3)
    key = reduce_form((1, 3, 0))
    assert key[0] == "sq" and key[1] == 1 and key[3] == 3


def test_reduce_form_invariance_under_unimodular_substitution():
    # keys are constant on proper-equivalence orbits generated by the two moves
    rng = random.Random(11)
    shifts = [
        (1, 1, 0, 1),
        (1, -1, 0, 1),
        (0, -1, 1, 0),
        (0, 1, -1, 0),
        (1, 0, 1, 1),
        (1, 0, -1, 1),
    ]

    def apply(q, g):
        A, B, C = q
        a, b, c, d = g
        return (
            A * a * a + B * a * c + C * c * c,
            2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d,
            A * b * b + B * b * d + C * d * d,
        )

    for _ in range(400):
        q = (rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
        base = reduce_form(q)
        w = q
        for _ in range(6):
            w = apply(w, rng.choice(shifts))
        assert reduce_form(w) == base, (q, w)


def test_class_label_examples():
    assert class_label(U) != class_label(mat_mul(U, U))
    # conjugation invariance on random matrices of determinant <= 10
    rng = random.Random(3)
    seen = 0
    while seen < 20:
        m = tuple(rng.randint(-6, 6) for _ in range(4))
        if not 0 < mat_det(m) <= 10:
            continue
        seen += 1
        for g in (T, S):
            assert class_label(conjugate(g, m)) == class_label(m)
    # the two square-discriminant witnesses: equal labels iff a conjugator exists
    m1, m2 = (1, 0, 0, 2), (2, 1, 0, 1)
    assert (class_label(m1) == class_label(m2)) == conjugacy_search(m1, m2)


def test_label_constant_on_orbit_words():
    # words of length <= 6 in S, T and inverses
    rng = random.Random(5)
    gens = (S, (0, 1, -1, 0), T, (1, -1, 0, 1))
    count = 0
    while count < 60:
        m = tuple(rng.randint(-6, 6) for _ in range(4))
        if not 0 < mat_det(m) <= 6:
            continue
        count += 1
        base = class_label(m)
        w = m
        for _ in range(6):
            w = conjugate(rng.choice(gens), w)
            assert class_label(w) == base


def test_label_completeness_small_scale():
    # equal labels must be connected by a conjugator found by the search
    groups = {}
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                for d in range(-6, 7):
                    m = (a, b, c, d)
                    if 0 < mat_det(m) <= 6:
                        groups.setdefault(class_label(m), []).append(proj_canonical(m))
    checked = 0
    for lab, mats in groups.items():
        base = mats[0]
        for other in mats[1:8]:  # cap the per-class work
            # hyperbolic conjugators can be long words; frontiers stay small
            assert conjugacy_search(base, other, depth=48, cap=500000), (lab, base, other)
            checked += 1
    assert checked > 50


def test_class_count_identity():
    # weighted label counts per (disc, trace!=0, content multiple) match the
    # Hurwitz numbers, and sum over everything matches -sigma1(n)
    from trace_kit.hecke_operator import expected_class_weights

    for n in range(1, 13):
        weights = expected_class_weights(n)
        assert sum(e for e, _ in weights.values()) == -sigma1(n)
        # trace != 0, D < 0, content divisible by u
        for u in (1, 2, 3):
            per_disc = {}
            for lab, (eps, mat) in weights.items():
                det, t, _, g = lab
                D = t * t - 4 * n
                if D < 0 and t != 0 and g % u == 0:
                    per_disc[D] = per_disc.get(D, QQ(0)) + eps
            for D, got in per_disc.items():
                if D % (u * u) == 0:
                    assert got == -2 * hurwitz_H(-D // (u * u)), (n, u, D)
        # trace 0
        zero_sum = {}
        for lab, (eps, mat) in weights.items():
            det, t, _, g = lab
            if t == 0:
                D = -4 * n
                zero_sum[D] = zero_sum.get(D, QQ(0)) + eps
        if zero_sum:
            assert zero_sum[-4 * n] == -hurwitz_H(4 * n)


def test_square_disc_class_witnesses():
    # matrices built from a square-disc form and from its canonical key are
    # conjugate; keys are stable under the generating substitutions
    for q in ((1, 3, 0), (2, 3, 0), (0, 3, 1), (4, 6, 0), (1, 5, 0), (3, 5, 0)):
        key = reduce_form(q)
        assert key[0] == "sq"
        g, k, mp = key[1], key[2], key[3]
        canonical = (g * k, g * mp, 0)
        # a trace with t = disc (mod 2), so t and B share parity, and
        # t^2 > disc, so det = (t^2 - disc) / 4 > 0
        disc = form_disc(q)
        t = isqrt(disc) + 2
        t += (t - disc) % 2
        m1 = matrix_with_form(t, q)
        m2 = matrix_with_form(t, canonical)
        assert mat_det(m1) > 0, q
        assert class_label(m1) == class_label(m2)
        assert conjugacy_search(m1, m2, depth=40, cap=400000), (q, canonical)
        for h in (S, mat_inv_unimodular(S), T, mat_inv_unimodular(T)):
            m3 = conjugate(h, m1)
            assert reduce_form(quad_form_of(m3)) == key, (q, h)
            assert class_label(m3) == class_label(m1), (q, h)
            assert conjugacy_search(m3, m2, depth=40, cap=400000), (q, h)


def test_epsilon_examples():
    assert epsilon((1, 0, 0, 1)) == QQ(1, 6)
    assert epsilon((2, 0, 0, 2)) == QQ(1, 6)
    assert epsilon((1, 1, 0, 1)) == 0
    assert epsilon(S) == QQ(-1, 2)
    assert epsilon(U) == QQ(-1, 3)
    assert epsilon((1, 0, 0, 2)) == 1
    assert epsilon((0, -2, 1, 1)) == QQ(-1)  # det 2, trace 1: D = -7, content 1
    assert epsilon((1, -3, 1, 1)) == QQ(-1)  # det 4, trace 2: D = -12, content 1
    assert epsilon((1, 2, 0, 1)) == 0  # parabolic, nonscalar
    assert epsilon((1, 1, 1, 3)) == 0  # det 2, trace 4: D = 8 nonsquare


def test_stab_order_examples():
    assert stab_order(U) == 3
    assert stab_order(S) == 2
    assert stab_order((1, 1, 0, 1)) is None
    assert stab_order((1, 0, 0, 2)) == 1
    assert stab_order((3, 0, 0, 3)) is None


def test_matrix_with_form_roundtrip():
    rng = random.Random(13)
    count = 0
    while count < 100:
        m = tuple(rng.randint(-8, 8) for _ in range(4))
        if mat_det(m) <= 0:
            continue
        count += 1
        q = quad_form_of(m)
        assert matrix_with_form(mat_trace(m), q) == m
    # and the negated form gives the matrix with negated off-trace part
    q = quad_form_of(U)
    m2 = matrix_with_form(1, form_neg(q))
    assert quad_form_of(m2) == form_neg(q) and mat_trace(m2) == 1


@pytest.mark.parametrize(
    "vector, message",
    [((2, 4), "is not primitive"), ((1, 1), "not to the shape")],
)
def test_square_key_checks_its_zero_vector(monkeypatch, vector, message):
    # a wrong zero vector of a square-disc form raises, under python -O too
    import trace_kit.matrix_forms as mf

    monkeypatch.setattr(mf, "_primitive_zero_vector", lambda q, root_sign: vector)
    with pytest.raises(ArithmeticError, match=message):
        reduce_form((1, 3, 0))
