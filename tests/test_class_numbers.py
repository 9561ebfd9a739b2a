import tracemalloc

from trace_kit.arith import QQ, euler_phi, kronecker, moebius, sigma1
from trace_kit.class_numbers import h0, hurwitz_H, precompute, twelve_H, twelve_h0


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


def test_caches_hold_only_discriminants(empty_class_tables):
    # D = 1, 2 (mod 4) is no discriminant: H(D) = h0(-D) = 0, read from the
    # swept tables and, above them, without a per-D memo entry; every other
    # value is the per-D walk's
    import trace_kit.class_numbers as cn

    empty_class_tables()
    precompute(1000)
    assert len(cn._twelve_h) == len(cn._prim) == 1001
    for D in range(1, 1001):
        twelve_h, prim = cn._class_counts(D) if D % 4 in (0, 3) else (0, 0)
        assert (cn._twelve_h[D], cn._prim[D]) == (twelve_h, prim), D
        assert hurwitz_H(D) == QQ(twelve_h, 12), D
        assert h0(-D) == QQ(prim, {3: 3, 4: 2}.get(D, 1)), D
    # past the sweep, a per-D read stores nothing for a non-discriminant
    assert hurwitz_H(1001) == h0(-1002) == 0
    assert cn._walk.cache_info().currsize == 0
    twelve_h, prim = cn._class_counts(1003)
    assert twelve_H(1003) == twelve_h and twelve_h0(-1003) == 12 * prim
    assert cn._walk.cache_info().currsize == 1


def test_cache_consistency(empty_class_tables):
    # values read from the swept tables and the per-D memo equal ones walked
    # afresh without either
    import trace_kit.class_numbers as cn

    precompute(500)
    samples = [(cn.hurwitz_H, D) for D in (-16, -1, 0, 3, 4, 20, 23, 400, 20003, 20004)]
    samples += [(cn.h0, D) for D in (-20003, -20, -4, -3, 0, 4, 9, 49)]
    first = [fn(D) for fn, D in samples]
    assert [fn(D) for fn, D in samples] == first
    empty_class_tables()
    assert [fn(D) for fn, D in samples] == first


def test_twelfths_is_exact():
    # 12*H(D) and 12*h0(D) are exact ints, 12 times the API values, over
    # negative, zero and positive D, squares and the unit weights at D = 3, 4
    precompute(3000)
    for D in range(-400, 3001):
        for twelve, fn in ((twelve_H, hurwitz_H), (twelve_h0, h0)):
            t = twelve(D)
            assert type(t) is int and t == 12 * fn(D), D
    assert twelve_H(0) == twelve_h0(0) == -1
    assert twelve_H(3) == twelve_h0(-3) == 4 and twelve_H(4) == twelve_h0(-4) == 6
    for u in range(1, 21):
        assert twelve_H(-u * u) == -6 * u and twelve_h0(u * u) == -6 * euler_phi(u), u
    assert twelve_H(-8) == twelve_h0(8) == twelve_H(1) == twelve_h0(-2) == 0


def test_class_number_memory_stays_bounded(monkeypatch, empty_class_tables):
    # 60,000 isolated D above the swept top retain no more than the per-D
    # memo's 2^14 entries (5 MiB is 320 bytes an entry), not one value per D.
    # The walk is a stand-in here: the memo is under test, and a real walk
    # near D = 10^7 takes about 10^6 steps
    import trace_kit.class_numbers as cn

    precompute(100)
    monkeypatch.setattr(cn, "_class_counts", lambda D: (12 * D, D))
    discs = [D for D in range(10**7, 10**7 + 120000) if D % 4 in (0, 3)]
    tracemalloc.start()
    try:
        for D in discs:
            assert hurwitz_H(D) == D and h0(-D) == D
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grown < 5 << 20, grown
    info = cn._walk.cache_info()
    assert info.currsize == info.maxsize == 1 << 14

    # a smaller sweep keeps the tables held, a larger one replaces them
    empty_class_tables()
    precompute(200)
    held = cn._twelve_h
    precompute(100)
    assert cn._twelve_h is held and len(held) == len(cn._prim) == 201
    precompute(300)
    assert len(cn._twelve_h) == len(cn._prim) == 301 and cn._twelve_h[:201] == held
