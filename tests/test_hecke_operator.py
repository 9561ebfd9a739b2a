import random

from trace_kit.arith import QQ, sigma1
from trace_kit.hecke_operator import (
    ONE_MINUS_S,
    ONE_PLUS_S,
    ONE_PLUS_UUU,
    GroupRingElem,
    build_Tn,
    build_Tn_infty,
    _CONDENSED_SUMS,
    _build_condensed,
    _elliptic_family,
    _upper_family,
    _x_family,
    _y_family,
    _z_family,
    build_elliptic_reps,
    det_matrices,
    expected_class_weights,
    ideal_membership,
    operator_json_entries,
    verify_operator,
)
from trace_kit.matrix_forms import (
    S,
    T,
    U,
    class_label,
    mat_det,
    mat_mul,
    mat_neg,
    proj_canonical,
)


def test_T1_exact():
    t1 = build_Tn(1)
    assert t1.coeffs == {
        proj_canonical((1, 0, 0, 1)): QQ(1, 6),
        proj_canonical(S): QQ(-1, 2),
        proj_canonical(U): QQ(-1, 3),
        proj_canonical(mat_mul(U, U)): QQ(-1, 3),
    }


def test_infinity_coset_support():
    assert sorted(build_Tn_infty(2).coeffs) == [(1, 0, 0, 2), (1, 1, 0, 2), (2, 0, 0, 1)]
    for n in range(1, 51):
        inf = build_Tn_infty(n)
        assert len(inf) == sigma1(n)
        assert all(q == 1 for q in inf.coeffs.values())


def test_elliptic_coefficient_sums():
    reps1 = build_elliptic_reps(1)
    assert sorted(c for _, c in reps1) == [QQ(-1, 2), QQ(-1, 3), QQ(-1, 3)]
    assert sum((c for _, c in build_elliptic_reps(2)), QQ(0)) == -4


# -- the box oracle ---------------------------------------------------------------
#
# Every family and every condensed sum, defined as the determinant-n matrices of
# a bounded box that satisfy its inequalities.  The package generates each set
# straight from its inequalities; these filters are the independent reference.


def family_bound(n):
    """Entry bound covering every family member of determinant n."""
    return 2 * n + 2


def in_upper_family(m, n):
    """Upper-triangular part: 0 <= b < d - a, a > 0."""
    a, b, c, d = m
    return c == 0 and a > 0 and 0 <= b < d - a


def in_X_family(m, n):
    a, b, c, d = m
    return 0 < -b < c and 0 < d < a


def in_Y_family(m, n):
    a, b, c, d = m
    return a - d < -b <= c and 0 < c < a


def in_Z_family(m, n):
    a, b, c, d = m
    if not (a - d <= c < -b and 0 < a and 0 < c):
        return False
    if a - d == c and not (-d >= a):
        return False
    return True


def in_elliptic_rep(m, n):
    """Fixed point inside the strip {0 <= Re z <= 1/2, |z-1| >= 1}, boundary
    resolved by trace sign (mm = a - d, nb = -b): c > 0, 0 <= mm <= c, nb >= mm.
    """
    a, b, c, d = m
    t = a + d
    if c <= 0 or t * t >= 4 * n:
        return False
    mm = a - d
    nb = -b
    if not (0 <= mm <= c and nb >= mm):
        return False
    if mm == 0 and nb > c and not t > 0:
        return False
    if mm == 0 and nb < c and not t <= 0:
        return False
    if mm == c and nb > c and not t <= 0:
        return False
    if nb == mm and nb < c and not t > 0:
        return False
    return True


# each family's generator and the predicate that cuts it out of the box
BOX_FAMILIES = {
    _upper_family: in_upper_family,
    _x_family: in_X_family,
    _y_family: in_Y_family,
    _z_family: in_Z_family,
    _elliptic_family: in_elliptic_rep,
}


def box_condensed_weights(m):
    """The weight of m in each of the five condensed sums, in package order."""
    a, b, c, d = m
    mm, nb = a - d, -b
    out = [
        QQ(1) if mm < nb <= c and 0 <= c < a else 0,
        QQ(-1) if nb <= mm < c and 0 <= -d < nb else 0,
        QQ(-1) if 0 < mm <= c < nb and a <= 0 else 0,
        QQ(-1) if 0 <= mm < nb < c and d <= 0 else 0,
        0,
    ]
    if 0 <= mm <= nb == c:
        if mm == 0 and nb == 0:
            out[4] = QQ(1, 12)
        elif mm == 0:
            out[4] = QQ(-1, 2)
        elif mm == nb:
            out[4] = QQ(-1, 3)
        else:
            out[4] = QQ(-1)
    return out


def box_sets(n, bound):
    """(family generator -> sorted members, [sorted (matrix, weight) per
    condensed sum]) from one walk of the box |entries| <= bound."""
    families = {family: [] for family in BOX_FAMILIES}
    sums = [[] for _ in _CONDENSED_SUMS]
    for m in det_matrices(n, bound):
        for family, pred in BOX_FAMILIES.items():
            if pred(m, n):
                families[family].append(m)
        for terms, q in zip(sums, box_condensed_weights(m)):
            if q:
                terms.append((m, q))
    return {k: sorted(v) for k, v in families.items()}, [sorted(t) for t in sums]


def test_one_representative_per_elliptic_class():
    # the enumerated representatives biject with the elliptic labels found by
    # a bounded scan
    for n in range(1, 25):
        reps = sorted(_elliptic_family(n))
        labels = [class_label(m) for m in reps]
        assert len(set(labels)) == len(labels), n
        scan_labels = set()
        for m in det_matrices(n, family_bound(n)):
            t = m[0] + m[3]
            if t * t < 4 * n:
                scan_labels.add(class_label(m))
        assert set(labels) == scan_labels, n


def test_family_bound_stability():
    # every family and every condensed sum, generated from its inequalities,
    # equals the box filter at family_bound(n) ...
    for n in range(1, 33):
        families, sums = box_sets(n, family_bound(n))
        for family, members in families.items():
            assert sorted(family(n)) == members, (n, family.__name__)
        for condensed_sum, terms in zip(_CONDENSED_SUMS, sums):
            assert sorted(condensed_sum(n)) == terms, (n, condensed_sum.__name__)
    # ... and doubling the box adds no member
    for n in range(1, 13):
        assert box_sets(n, family_bound(n)) == box_sets(n, 2 * family_bound(n)), n


def test_variants_agree():
    for n in range(1, 61):
        assert build_Tn(n) == _build_condensed(n), n


def test_verify_operator_compares_the_two_builds(monkeypatch, capsys):
    # without the boundary sum the condensed build is wrong at every n, and
    # only the comparison with build_Tn can tell: the geometric operator
    # still passes every structural check
    from trace_kit import hecke_operator
    from trace_kit.cli import main

    monkeypatch.setattr(hecke_operator, "_CONDENSED_SUMS", _CONDENSED_SUMS[:-1])
    for n in range(1, 4):
        rep = verify_operator(n)
        assert rep["transfer"] and rep["exchange"] and rep["class_sums"], n
        assert rep["variants_agree"] is False and rep["ok"] is False, n
    assert main(["verify", "heckeop", "--n", "1:3"]) == 1
    out = capsys.readouterr().out
    assert out.count("variants_agree=FAIL") == 3


def test_build_Tn_memo_is_bounded():
    assert build_Tn.cache_info().maxsize is not None


def test_group_ring_relations():
    assert ONE_PLUS_S * ONE_PLUS_S == ONE_PLUS_S.scale(2)
    assert ONE_PLUS_UUU * ONE_PLUS_UUU == ONE_PLUS_UUU.scale(3)
    # associativity on random small elements
    rng = random.Random(19)

    def rand_elem(det):
        out = GroupRingElem(det)
        added = 0
        while added < 3:
            m = tuple(rng.randint(-4, 4) for _ in range(4))
            if mat_det(m) == det:
                out.add_term(m, QQ(rng.randint(-3, 3), rng.randint(1, 3)))
                added += 1
        return out

    for _ in range(10):
        x, y, z = rand_elem(1), rand_elem(2), rand_elem(3)
        assert (x * y) * z == x * (y * z)


def test_action_freeness():
    # S, T, U act freely on positive-determinant projective matrices
    for a in range(-8, 9):
        for b in range(-8, 9):
            for c in range(-8, 9):
                for d in range(-8, 9):
                    m = (a, b, c, d)
                    if not 0 < mat_det(m) <= 6:
                        continue
                    for g in (S, T, U):
                        gm = mat_mul(g, m)
                        assert gm != m and gm != mat_neg(m)


def test_membership_examples():
    rng = random.Random(23)
    x = GroupRingElem(2)
    while len(x) < 4:
        m = tuple(rng.randint(-4, 4) for _ in range(4))
        if mat_det(m) == 2:
            x.add_term(m, QQ(rng.randint(1, 5)))
    tinv = (1, -1, 0, 1)
    one_minus_tinv = GroupRingElem(1, {(1, 0, 0, 1): QQ(1), tinv: QQ(-1)})
    ok, _ = ideal_membership(one_minus_tinv * x, "one_minus_T")
    assert ok
    ok, _ = ideal_membership(ONE_PLUS_UUU * x, "one_plus_UUU")
    assert ok
    ok, _ = ideal_membership(ONE_PLUS_S * x, "one_plus_S")
    assert ok
    empty = GroupRingElem(2)
    for which in ("one_minus_T", "one_plus_S", "one_plus_UUU"):
        ok, _ = ideal_membership(empty, which)
        assert ok
    # a bare single matrix is in none of them
    single = GroupRingElem(2, {(1, 0, 0, 2): QQ(1)})
    for which in ("one_minus_T", "one_plus_S", "one_plus_UUU"):
        ok, wit = ideal_membership(single, which)
        assert not ok and wit is not None


def test_verify_operator_battery():
    for n in range(1, 13):
        rep = verify_operator(n)
        assert rep["ok"], (n, {k: v for k, v in rep.items() if k != "ledger"})
    # the degree-1 class ledger
    ledger = verify_operator(1)["ledger"]
    vals = sorted(str(v[0]) for v in ledger.values())
    assert vals == ["-1/2", "-1/3", "-1/3", "1/6"]


def test_scalar_class_at_square_index():
    for n in (1, 4, 9, 16):
        rep = verify_operator(n)
        assert rep["ok"]
        r = int(n**0.5)
        lab = class_label((r, 0, 0, r))
        assert rep["ledger"][lab] == (QQ(1, 6), QQ(1, 6))


def test_negative_control():
    op = build_Tn(2)
    bad = GroupRingElem(2, dict(op.coeffs))
    key = sorted(bad.coeffs)[0]
    bad.coeffs[key] = bad.coeffs[key] + 1
    inf = build_Tn_infty(2)
    ok_a, wit = ideal_membership((ONE_MINUS_S * bad) - (inf * ONE_MINUS_S), "one_minus_T")
    ok_b1, _ = ideal_membership(bad * ONE_PLUS_S, "one_plus_UUU")
    ok_b2, _ = ideal_membership(bad * ONE_PLUS_UUU, "one_plus_S")
    sums = {}
    mem = {}
    for m, q in bad.coeffs.items():
        lab = class_label(m)
        sums[lab] = sums.get(lab, 0) + q
        mem.setdefault(lab, m)
    from trace_kit.matrix_forms import epsilon

    ok_c = all(sums[lab] == epsilon(mem[lab]) for lab in sums)
    assert not (ok_a and ok_b1 and ok_b2 and ok_c)
    assert wit is not None or ok_a


def test_coefficient_totals():
    # summing all operator coefficients re-derives -sigma1(n) through the
    # class-sum property and the class-number relation
    for n in range(1, 13):
        op = build_Tn(n)
        assert sum(op.coeffs.values(), QQ(0)) == -sigma1(n)
        weights = expected_class_weights(n)
        assert sum((e for e, _ in weights.values()), QQ(0)) == -sigma1(n)


def test_operator_json_entries():
    rows = operator_json_entries(build_Tn(1))
    assert rows == sorted(rows, key=lambda r: (r["a"], r["b"], r["c"], r["d"]))
    assert {"a": 1, "b": 0, "c": 0, "d": 1, "num": 1, "den": 6} in rows
    assert all(set(r) == {"a", "b", "c", "d", "num", "den"} for r in rows)
