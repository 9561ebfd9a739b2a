import pytest

from trace_kit.arith import QQ, kronecker, moebius, sigma1
from trace_kit.class_numbers import h0, hurwitz_H, precompute, twelfths


def test_hurwitz_examples():
    assert hurwitz_H(0) == QQ(-1, 12)
    assert hurwitz_H(-4) == QQ(-1)
    assert hurwitz_H(-9) == QQ(-3, 2)
    assert hurwitz_H(-5) == 0
    assert hurwitz_H(3) == QQ(1, 3)
    assert hurwitz_H(4) == QQ(1, 2)
    assert hurwitz_H(23) == 3
    assert hurwitz_H(1) == 0 and hurwitz_H(2) == 0  # not discriminants


def test_h0_examples():
    assert h0(0) == QQ(-1, 12)
    assert h0(4) == QQ(-1, 2)
    assert h0(9) == QQ(-1)  # -phi(3)/2
    assert h0(-3) == QQ(1, 3)
    assert h0(-4) == QQ(1, 2)
    assert h0(-23) == 3
    assert h0(5) == 0 and h0(-5) == 0


def test_inversion_pair():
    precompute(2000)
    for D in range(-2000, 2001):
        lhs = hurwitz_H(-D)
        if D == 0:
            assert lhs == h0(0)
            assert h0(0) == hurwitz_H(0)
            continue
        rhs = QQ(0)
        d = 1
        while d * d <= abs(D):
            if D % (d * d) == 0:
                rhs += h0(D // (d * d))
            d += 1
        assert lhs == rhs, D
        rhs2 = QQ(0)
        d = 1
        while d * d <= abs(D):
            if D % (d * d) == 0 and moebius(d):
                rhs2 += hurwitz_H(D // (d * d)) * moebius(d)
            d += 1
        assert h0(-D) == rhs2, D


def test_kronecker_hurwitz():
    precompute(900)
    for n in range(1, 201):
        total = QQ(0)
        for t in range(0, n + 2):
            v = hurwitz_H(4 * n - t * t)
            total += v if t == 0 else 2 * v
        assert total == sigma1(n), n


def test_doubling_relation():
    # 3H(D) = H(4D) + (-D|2) H(D) + 2H(D/4), last term only when 4 | D
    precompute(4000)
    for D in range(0, 1001):
        if D % 4 in (1, 2):
            continue
        rhs = hurwitz_H(4 * D) + kronecker(-D, 2) * hurwitz_H(D)
        if D % 4 == 0:
            rhs += 2 * hurwitz_H(D // 4)
        assert 3 * hurwitz_H(D) == rhs, D


def test_walk_equals_sweep():
    # the per-D walk and the range sweep are two enumerations of the
    # reduced forms; both give 12*H(D) and the primitive form count
    import trace_kit.class_numbers as cn

    twelve_h, prim = cn._class_sweep(3000)
    for D in range(1, 3001):
        assert cn._class_counts(D) == (twelve_h[D], prim[D]), D


def test_caches_hold_only_discriminants():
    # D = 1, 2 (mod 4) is no discriminant: H(D) = h0(-D) = 0 without an
    # entry; every stored value is the per-D walk's
    import trace_kit.class_numbers as cn

    cn._H_cache.clear()
    cn._h0_cache.clear()
    precompute(1000)
    for D in range(1, 1001):
        twelve_h, prim = cn._class_counts(D) if D % 4 in (0, 3) else (0, 0)
        assert hurwitz_H(D) == QQ(twelve_h, 12), D
        assert h0(-D) == QQ(prim, {3: 3, 4: 2}.get(D, 1)), D
    # past the sweep, a per-D read stores nothing for a non-discriminant
    assert hurwitz_H(1001) == h0(-1002) == 0
    assert not [D for D in cn._H_cache if D > 0 and D % 4 in (1, 2)]
    assert not [D for D in cn._h0_cache if D < 0 and -D % 4 in (1, 2)]
    assert sorted(D for D in cn._H_cache if D > 0) == [D for D in range(1, 1001) if D % 4 in (0, 3)]


def test_cache_consistency():
    # cached values equal freshly recomputed ones
    import trace_kit.class_numbers as cn

    samples = [(cn.hurwitz_H, D) for D in (-16, -1, 0, 3, 4, 20, 23, 400)]
    samples += [(cn.h0, D) for D in (-20, -4, 0, 4, 9, 49)]
    for fn, D in samples:
        first = fn(D)
        cn._H_cache.pop(D, None)
        cn._h0_cache.pop(D, None)
        assert fn(D) == first


def test_twelfths_is_exact():
    precompute(3000)
    for D in range(-400, 3001):
        for v in (hurwitz_H(D), h0(D)):
            t = twelfths(v)
            assert type(t) is int and QQ(t, 12) == v, D
    assert twelfths(QQ(-1, 12)) == -1 and twelfths(QQ(-3, 2)) == -18
    with pytest.raises(ArithmeticError):
        twelfths(QQ(1, 5))
