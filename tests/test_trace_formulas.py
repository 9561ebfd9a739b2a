import math
from functools import partial

import pytest

from trace_kit.arith import QQ, divisors, euler_phi, gegenbauer, is_square, isqrt, moebius, sigma1_N
from trace_kit.class_numbers import h0, hurwitz_H
from trace_kit.cusp_terms import (
    coboundary_trace,
    coboundary_trace_atkin,
    eisenstein_trace,
    eisenstein_trace_atkin,
    phi_chi,
)
from trace_kit.dirichlet import CycloNum, enumerate_characters, trivial_character
from trace_kit.local_counts import B_counts, C_counts
from trace_kit.trace_formulas import (
    TraceResult,
    _t_range_full,
    cohen_gamma04,
    scalar_term,
    trace_atkin_full,
    trace_atkin_lehner,
    trace_hecke_cusp,
    trace_hecke_full,
    trace_series,
)
from trace_kit.verification import eta_product

T1 = trivial_character(1)
T4 = trivial_character(4)


def test_level_one_examples():
    assert trace_hecke_cusp(1, T1, 12, 1).value == 1
    assert trace_hecke_cusp(1, T1, 12, 2).value == -24
    assert trace_hecke_cusp(1, T1, 12, 3).value == 252
    assert trace_hecke_full(1, T1, 12, 1) == 3
    assert trace_hecke_full(1, T1, 12, 2) == 2001


def test_t_range_full_matches_the_scan():
    # the reference scan: every t up to n + 1 (the largest split trace,
    # 4n = 2 * 2n) with t^2 <= 4n or t^2 - 4n a square
    for n in range(1, 3001):
        scan = [t for t in range(n + 2) if t * t <= 4 * n or is_square(t * t - 4 * n)]
        assert _t_range_full(n) == scan, n


def test_breakdown_assembles():
    res = trace_hecke_cusp(1, T1, 12, 1)
    assert res.value == res.elliptic + res.hyperbolic + res.correction
    assert res.elliptic == QQ(3, 2) and res.hyperbolic == QQ(-1, 2)


def test_trace_result_fields_and_repr():
    res = trace_hecke_cusp(1, T1, 12, 2)
    parts = (res.value, res.elliptic, res.hyperbolic, res.correction)
    built = TraceResult(*parts)
    assert built.warning is None and built == res
    assert tuple(built) == (*parts, None)
    assert TraceResult(*parts, "w") != res and TraceResult(*parts, "w").warning == "w"
    # the repr a dataclass of these five fields had
    assert repr(res) == (
        f"TraceResult(value={res.value!r}, elliptic={res.elliptic!r}, "
        f"hyperbolic={res.hyperbolic!r}, correction={res.correction!r}, warning=None)"
    )


def test_parity_vanishing():
    odd5 = [c for c in enumerate_characters(5) if c.parity() == -1][0]
    res = trace_hecke_cusp(5, odd5, 12, 7)
    assert not res.value and res.warning
    assert not trace_hecke_full(5, odd5, 4, 3)


def test_tau_small():
    tau = eta_product(((1, 24),), 16)
    for n in range(1, 16):
        assert trace_hecke_cusp(1, T1, 12, n).value == tau[n]


def test_hecke_multiplicativity_spot():
    tau = {n: int(trace_hecke_cusp(1, T1, 12, n).value.as_rational()) for n in (1, 2, 4)}
    assert tau[4] == tau[2] ** 2 - 2**11 * tau[1]


def test_integrality_trivial_character():
    for N in (1, 2, 3, 4, 6, 9):
        chiN = trivial_character(N)
        for k in (2, 4, 6, 8, 12):
            for n in range(1, 9):
                v = trace_hecke_cusp(N, chiN, k, n).value.as_rational()
                assert v.denominator == 1, (N, k, n, v)


def test_full_equals_two_cusp_plus_eisenstein():
    for N in range(1, 8):
        for chi in enumerate_characters(N):
            for k in range(2, 10):
                if chi.parity() != (1 if k % 2 == 0 else -1):
                    continue
                for n in range(1, 9):
                    full = trace_hecke_full(N, chi, k, n)
                    cusp = trace_hecke_cusp(N, chi, k, n).value
                    eis = eisenstein_trace(N, chi, k, n)
                    assert full == cusp * 2 + eis


def test_atkin_lehner_examples():
    assert trace_atkin_lehner(4, 1, 2, 1).value == 0
    res = trace_atkin_lehner(4, 1, 2, 1)
    assert (res.hyperbolic, res.elliptic, res.correction) == (QQ(-3, 2), QQ(1, 2), QQ(1))
    # ell = 1 equals the plain Hecke trace
    for N in (1, 4, 6, 9):
        chiN = trivial_character(N)
        for k in (2, 4, 6):
            for n in range(1, 7):
                assert trace_atkin_lehner(N, 1, k, n).value == trace_hecke_cusp(N, chiN, k, n).value


def test_atkin_full_consistency():
    for N, ell in ((2, 2), (3, 3), (6, 2), (6, 3), (6, 6)):
        for k in (2, 4, 6):
            w = k - 2
            for n in range(1, 6):
                full = trace_atkin_full(N, ell, k, n)
                cusp = trace_atkin_lehner(N, ell, k, n).value.as_rational()
                eis = eisenstein_trace_atkin(N, ell, k, n)
                assert full == 2 * ell ** (w // 2) * cusp + eis, (N, ell, k, n)


def test_atkin_validation_errors():
    with pytest.raises(ValueError):
        trace_atkin_lehner(4, 2, 4, 1)  # not an exact divisor
    with pytest.raises(ValueError):
        trace_atkin_lehner(6, 2, 3, 1)  # odd weight
    for fn in (trace_atkin_lehner, trace_atkin_full):
        with pytest.raises(ValueError, match="exact divisor"):
            fn(4, 2, 4, 1)
        with pytest.raises(ValueError, match="even k"):
            fn(6, 2, 3, 1)
        with pytest.raises(ValueError, match="n >= 1"):
            fn(6, 2, 4, 0)


def test_scalar_term_examples():
    assert not scalar_term(1, T1, 12, 2)
    assert scalar_term(1, T1, 12, 1) == QQ(11, 12)
    # slice equality is covered by the acceptance battery; spot-check one
    for N in (2, 6):
        chiN = trivial_character(N)
        for k in (4, 6):
            for n in (1, 4):
                r = {1: 1, 4: 2}[n]
                sl = chiN.value(C_counts(N, chiN, 1, 2 * r, n)) * 0
                for u in divisors(N):
                    sl = sl + chiN.value(C_counts(N, chiN, u, 2 * r, n)) * hurwitz_H(0)
                sl = sl * (-gegenbauer(k - 2, 2 * r, n))
                assert scalar_term(N, chiN, k, n) == sl


def test_trace_series():
    series = trace_series(1, T1, 1, 24)
    # dimensions of cusp plus all modular forms at level one
    dims = {2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 3, 14: 1, 16: 3, 18: 3, 20: 3, 22: 3, 24: 5}
    for k in range(2, 25):
        want = dims[k] if k % 2 == 0 else 0
        assert series[k - 2] == want, k
    assert trace_series(1, T1, 2, 12)[-1] == 2001


def test_cohen_examples():
    for n in range(1, 51, 2):
        assert cohen_gamma04(2, n) == 0
    for k in (2, 4, 6, 8, 10, 12):
        for n in range(1, 51, 2):
            assert cohen_gamma04(k, n) == trace_hecke_cusp(4, T4, k, n).value
    with pytest.raises(ValueError):
        cohen_gamma04(4, 2)
    with pytest.raises(ValueError):
        cohen_gamma04(3, 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            cohen_gamma04(4, n)


def test_cohen_raises_on_a_fractional_sum(monkeypatch):
    # the level-4 sum is 4 * total in ints; a class number off by one twelfth
    # leaves a remainder mod 4, which raises instead of being truncated
    import trace_kit.class_numbers as cn
    import trace_kit.trace_formulas as tf

    monkeypatch.setattr(tf, "twelve_H", lambda D: cn.twelve_H(D) + (D == 5))
    with pytest.raises(ArithmeticError, match="not an integer"):
        cohen_gamma04(2, 9)
    assert cohen_gamma04(2, 7) == 0


def test_query_validation():
    with pytest.raises(ValueError):
        trace_hecke_cusp(4, T1, 4, 1)  # modulus mismatch
    with pytest.raises(ValueError):
        trace_hecke_cusp(1, T1, 1, 1)  # weight too small
    with pytest.raises(ValueError, match="modulus"):
        trace_hecke_full(2, T4, 2, 3)
    with pytest.raises(ValueError, match="n >= 1"):
        trace_hecke_full(1, T1, 12, 0)
    with pytest.raises(ValueError, match="modulus"):
        trace_series(2, T4, 3, 6)
    with pytest.raises(ValueError, match="n >= 1"):
        trace_series(1, T1, 0, 12)


def test_composed_route_at_ell_one_is_the_hecke_route():
    for N in range(1, 41):
        chiN = trivial_character(N)
        for k in (2, 4, 6):
            for n in range(1, 25):
                composed = trace_atkin_lehner(N, 1, k, n)
                hecke = trace_hecke_cusp(N, chiN, k, n)
                for part in ("value", "elliptic", "hyperbolic", "correction"):
                    assert getattr(composed, part) == getattr(hecke, part), (N, k, n, part)
                assert trace_atkin_full(N, 1, k, n) == trace_hecke_full(N, chiN, k, n), (N, k, n)
                assert eisenstein_trace_atkin(N, 1, k, n) == eisenstein_trace(N, chiN, k, n), (N, k, n)
                assert coboundary_trace_atkin(N, 1, k, n) == coboundary_trace(N, chiN, k, n), (N, k, n)


def test_scalar_term_validates_its_query():
    chi2 = trivial_character(2)
    with pytest.raises(ValueError, match="modulus"):
        scalar_term(4, chi2, 2, 4)
    with pytest.raises(ValueError, match="k >= 2"):
        scalar_term(1, T1, 1, 4)
    with pytest.raises(ValueError, match="n >= 1"):
        scalar_term(1, T1, 12, 0)


# -- the closed route summed term by term in CycloNum arithmetic --------------------
#
# The reference the integer core must reproduce: every class and cusp term is
# one CycloNum of Fractions, added and scaled one at a time.


def _ref_fold_t(ts, term):
    total = term(0)
    for t in ts:
        if t:
            total = total + term(t) * 2
    return total


def _ref_class_sum(N, ell, chi, w, n, t):
    Np, m = N // ell, ell * n
    D = 4 * m - t * t
    acc = CycloNum.zero(chi.order)
    for u in divisors(ell):
        mu = moebius(u)
        if not mu:
            continue
        for up in divisors(Np):
            uu = u * up
            if D % (uu * uu):
                continue
            hval = hurwitz_H(D // (uu * uu))
            if hval:
                acc = acc + chi.value(C_counts(Np, chi, up, t, m)) * (hval * mu)
    return acc * gegenbauer(w, t, m)


def _ref_cusp_sum(N, ell, chi, n, weight):
    total = CycloNum.zero(chi.order)
    for a in divisors(n * ell):
        d = n * ell // a
        if (a + d) % ell == 0:
            total = total + phi_chi(N // ell, chi, a, d) * weight(a, d)
    return total * QQ(euler_phi(ell), ell)


def _ref_cusp_trace(N, ell, chi, k, n):
    """(value, elliptic, hyperbolic, correction) of T_n composed with W_ell."""
    w, m = k - 2, ell * n
    scale = QQ(-1, 2 * ell ** (w // 2))
    elliptic = _ref_fold_t(range(0, isqrt(4 * m) + 1, ell), partial(_ref_class_sum, N, ell, chi, w, n)) * scale
    hyper = _ref_cusp_sum(N, ell, chi, n, lambda a, d: min(a, d) ** (k - 1)) * scale
    corr = CycloNum.from_rational(sigma1_N(N, n) if k == 2 and chi.is_trivial() else 0, chi.order)
    return elliptic + hyper + corr, elliptic, hyper, corr


def _ref_full_trace(N, ell, chi, k, n):
    ts = [t for t in _t_range_full(ell * n) if t % ell == 0]
    total = -_ref_fold_t(ts, partial(_ref_class_sum, N, ell, chi, k - 2, n))
    if k == 2 and chi.is_trivial():
        total = total + sigma1_N(N, n)
    return total


def _ref_full_trace_h0(N, chi, k, n):
    """The full Hecke trace by primitive class numbers h0 against B."""

    def h0_term(t):
        acc = CycloNum.zero(chi.order)
        D = t * t - 4 * n
        if D == 0:
            return chi.value(B_counts(N, chi, N, t, n)) * (h0(0) * gegenbauer(k - 2, t, n))
        for u in range(1, isqrt(abs(D)) + 1):
            if D % (u * u) == 0 and h0(D // (u * u)):
                acc = acc + chi.value(B_counts(N, chi, math.gcd(N, u), t, n)) * h0(D // (u * u))
        return acc * gegenbauer(k - 2, t, n)

    total = -_ref_fold_t(_t_range_full(n), h0_term)
    if k == 2 and chi.is_trivial():
        total = total + sigma1_N(N, n)
    return total


def _same(a, b):
    return (a.order, a.coeffs) == (b.order, b.coeffs)


def _assert_parts_match(res, ref, key):
    for part, want in zip(("value", "elliptic", "hyperbolic", "correction"), ref):
        assert _same(getattr(res, part), want), (key, part)


def test_integer_core_matches_the_cyclonum_reference():
    for N in range(1, 17):
        for chi in enumerate_characters(N):
            for k in range(2, 7):
                if chi.parity() != (1 if k % 2 == 0 else -1):
                    continue
                for n in range(1, 31):
                    key = (N, chi.label(), k, n)
                    _assert_parts_match(trace_hecke_cusp(N, chi, k, n), _ref_cusp_trace(N, 1, chi, k, n), key)
                    full = _ref_full_trace(N, 1, chi, k, n)
                    assert _same(full, _ref_full_trace_h0(N, chi, k, n)), key
                    assert _same(trace_hecke_full(N, chi, k, n), full), key


def test_composed_integer_core_matches_the_cyclonum_reference():
    for N, ell in ((6, 2), (6, 3), (10, 5), (12, 3), (12, 4), (30, 5)):
        chi = trivial_character(N // ell)
        for k in (2, 4):
            for n in range(1, 21):
                key = (N, ell, k, n)
                _assert_parts_match(trace_atkin_lehner(N, ell, k, n), _ref_cusp_trace(N, ell, chi, k, n), key)
                assert trace_atkin_full(N, ell, k, n) == _ref_full_trace(N, ell, chi, k, n).as_rational(), key


def test_integer_core_matches_the_reference_past_the_wrap():
    # the class sums key each t by (u', t mod (N/ell) u'); out to n = 120,
    # and on the full space's split t, many t share one residue class
    for N, ci, k in ((20, 0, 4), (20, 3, 3), (24, 1, 3), (36, 7, 2), (36, 7, 4), (36, 8, 3)):
        chi = enumerate_characters(N)[ci]
        for n in range(1, 121):
            key = (N, ci, k, n)
            _assert_parts_match(trace_hecke_cusp(N, chi, k, n), _ref_cusp_trace(N, 1, chi, k, n), key)
            full = _ref_full_trace(N, 1, chi, k, n)
            assert _same(full, _ref_full_trace_h0(N, chi, k, n)), key
            assert _same(trace_hecke_full(N, chi, k, n), full), key
    for N, ell in ((30, 5), (42, 7)):
        chi = trivial_character(N // ell)
        for n in range(1, 61):
            key = (N, ell, n)
            _assert_parts_match(trace_atkin_lehner(N, ell, 4, n), _ref_cusp_trace(N, ell, chi, 4, n), key)
            assert trace_atkin_full(N, ell, 4, n) == _ref_full_trace(N, ell, chi, 4, n).as_rational(), key


@pytest.mark.parametrize("ci", [0, 2])
def test_hurwitz_h0_cross_check_raises_on_a_wrong_class_number(monkeypatch, ci):
    # n = 1, t = 1 reads 12*h0(-3), and alpha^2 - alpha + 1 = 0 has two roots
    # mod 13: one h0 read 12 too high moves the h0 shape off the Hurwitz one
    import trace_kit.class_numbers as cn
    import trace_kit.trace_formulas as tf

    chi = enumerate_characters(13)[ci]
    want = trace_hecke_full(13, chi, 2, 1)
    monkeypatch.setattr(tf, "twelve_h0", lambda D: cn.twelve_h0(D) + 12 * (D == -3))
    with pytest.raises(RuntimeError, match=r"class-number variants disagree at N=13, k=2, n=1: ") as err:
        trace_hecke_full(13, chi, 2, 1)
    assert str(err.value).count("CycloNum(") == 2
    assert repr(want) in str(err.value)
