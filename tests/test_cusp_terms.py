import math

import pytest

from trace_kit import cusp_terms
from trace_kit.arith import QQ, divisors, euler_phi, sigma1_N, xgcd
from trace_kit.cusp_terms import (
    admissible_cusp_reps,
    coboundary_trace,
    coboundary_trace_atkin,
    cusp_count,
    cusp_reps,
    cusp_sum,
    eisenstein_trace,
    eisenstein_trace_atkin,
    phi_chi,
    phi_generic,
)
from trace_kit.dirichlet import enumerate_characters, trivial_character
from trace_kit.local_counts import B_counts, C_counts
from trace_kit.period_oracle import atkin_coset_desc, coset_table, hecke_coset_desc


def test_phi_chi_examples():
    assert phi_chi(1, trivial_character(1), 2, 3) == 1
    assert phi_chi(4, trivial_character(4), 1, 1) == 3
    assert phi_chi(6, trivial_character(6), 2, 3) == 1


def _pick(a, d):
    """A cusp_sum weight that keeps the pair (a, d) alone."""
    return lambda x, y: int((x, y) == (a, d))


def test_cusp_sum_examples():
    assert cusp_sum(6, 1, trivial_character(6), 6, _pick(2, 3)) == 1  # the trivial-character phi_chi
    assert cusp_sum(6, 2, trivial_character(3), 1, _pick(1, 2)) == 0  # 2 does not divide 1+2
    assert cusp_sum(6, 3, trivial_character(2), 1, _pick(1, 3)) == 0  # 3 does not divide 1+3
    assert cusp_sum(2, 2, trivial_character(1), 2, _pick(2, 2)) == QQ(1, 2)
    with pytest.raises(ValueError):
        cusp_sum(4, 2, trivial_character(2), 1, _pick(1, 2))


# each character's modulus differs from the level the helper is given
@pytest.mark.parametrize(
    "call",
    [
        lambda: phi_chi(3, enumerate_characters(6)[1], 1, 1),
        lambda: phi_generic((6, 1, 2), enumerate_characters(3)[1], 1, 1, 2),
        lambda: B_counts(6, enumerate_characters(3)[1], 2, 1, 2),
        lambda: C_counts(6, enumerate_characters(5)[1], 2, 1, 2),
        lambda: cusp_sum(6, 1, enumerate_characters(3)[1], 1, _pick(1, 1)),
        lambda: cusp_sum(6, 2, trivial_character(6), 1, _pick(1, 2)),  # the level is N/ell = 3
    ],
    ids=["phi_chi", "phi_generic", "B_counts", "C_counts", "cusp_sum", "cusp_sum_composed"],
)
def test_closed_helpers_reject_a_character_of_another_modulus(call):
    with pytest.raises(ValueError, match="character modulus must equal the level"):
        call()


def test_cusp_sum_matches_phi_chi_at_one():
    for N in range(1, 13):
        for chi in enumerate_characters(N):
            for ad in range(1, 16):
                for a in divisors(ad):
                    assert cusp_sum(N, 1, chi, ad, _pick(a, ad // a)) == phi_chi(N, chi, a, ad // a)


def test_cusp_sum_reads_lifts_by_class_mod_the_level():
    # cusp_sum keys its unit-lift histograms by (a mod N, d mod N); phi_chi
    # walks the lifts of (a, d) itself, with a and d past the level
    cusp_terms._lift_counts.cache_clear()
    for N in range(1, 13):
        for chi in enumerate_characters(N):
            for a in range(1, 2 * N + 2):
                for d in range(1, 2 * N + 2):
                    assert cusp_sum(N, 1, chi, a * d, _pick(a, d)) == phi_chi(N, chi, a, d), (N, chi, a, d)


def _cusp_sum_by_gcd_conditions(N, ell, a, d):
    """The composed cusp sum's (a, d) term by its gcd conditions: when
    ell | a + d, phi(ell)/ell times the sum of phi((r,s)) over N/ell = r*s
    with (r,s) | a - d, (r, a) = 1 and (s, d) = 1."""
    if (a + d) % ell:
        return QQ(0)
    count = 0
    for r in divisors(N // ell):
        s = N // ell // r
        g = math.gcd(r, s)
        if (a - d) % g == 0 and math.gcd(r, a) == 1 and math.gcd(s, d) == 1:
            count += euler_phi(g)
    return QQ(euler_phi(ell) * count, ell)


def test_cusp_sum_matches_the_gcd_condition_count():
    # every pair a*d = ell*n < 40 that the composed traces reach
    for N in range(1, 61):
        for ell in divisors(N):
            if math.gcd(ell, N // ell) != 1:
                continue
            chi = trivial_character(N // ell)
            for ad in range(ell, 40, ell):
                for a in divisors(ad):
                    d = ad // a
                    got = cusp_sum(N, ell, chi, ad // ell, _pick(a, d))
                    assert got == _cusp_sum_by_gcd_conditions(N, ell, a, d), (N, ell, a, d)


def test_cusp_reps_partition():
    for N in range(1, 25):
        tb = coset_table(N)
        seen = set()
        orbits = 0
        for i in range(len(tb)):
            if i in seen:
                continue
            orbits += 1
            j = i
            while j not in seen:
                seen.add(j)
                c, d = tb.points[j]
                j = tb.index_of(c, d + c)
        assert orbits == cusp_count(N)
        reps = cusp_reps(N)
        assert len(reps) == cusp_count(N)
        rep_orbit_ids = set()
        for rep in reps:
            i = tb.index_of(rep.r, rep.q)
            best = j = i
            while True:
                c, d = tb.points[j]
                j = tb.index_of(c, d + c)
                if j == i:
                    break
                best = min(best, j)
            rep_orbit_ids.add(best)
        assert len(rep_orbit_ids) == cusp_count(N)


def test_widths():
    # width is the least j > 0 with C T^j C^{-1} in the level group
    from trace_kit.matrix_forms import conjugate

    for N in (1, 2, 4, 6, 9, 12):
        for rep in cusp_reps(N):
            C = rep.matrix
            j = 1
            while True:
                conj = conjugate(C, (1, j, 0, 1))
                if conj[2] % N == 0:
                    break
                j += 1
            assert j == rep.width, (N, rep)


def test_admissibility_counts():
    for N in (1, 3, 4, 8, 9, 12):
        for chi in enumerate_characters(N):
            reps = admissible_cusp_reps(N, chi)
            c = chi.conductor()
            expected = [
                rep for rep in cusp_reps(N) if (N // math.gcd(rep.r, rep.s)) % c == 0
            ]
            assert list(reps) == expected


def test_phi_symmetry_and_oracle():
    for N in range(1, 13):
        for chi in enumerate_characters(N):
            w = 0 if chi.parity() == 1 else 1
            for ad in range(1, 25):
                for a in divisors(ad):
                    d = ad // a
                    closed = phi_chi(N, chi, a, d)
                    assert closed == phi_chi(N, chi, d, a)
                    assert closed == phi_generic(hecke_coset_desc(N, ad), chi, w, a, d)


def test_phi_generic_atkin():
    for N, ell in ((2, 2), (3, 3), (4, 1), (6, 2), (6, 3), (6, 6)):
        chi = trivial_character(N)
        for n in range(1, 5):
            for a in divisors(n * ell):
                d = n * ell // a
                got = phi_generic(atkin_coset_desc(N, ell, n), chi, 0, a, d)
                closed = cusp_sum(N, ell, trivial_character(N // ell), n, _pick(a, d))
                assert got == closed, (N, ell, a, d)
                assert closed == cusp_sum(N, ell, trivial_character(N // ell), n, _pick(d, a))


def _cusp_orbit_data(N):
    """Translation-orbit id per projective point, and the width per orbit."""
    tb = coset_table(N)
    orbit_id = {}
    next_id = 0
    for i in range(len(tb)):
        if i in orbit_id:
            continue
        j = i
        while j not in orbit_id:
            orbit_id[j] = next_id
            c, d = tb.points[j]
            j = tb.index_of(c, d + c)
        next_id += 1
    widths = {}
    for rep in cusp_reps(N):
        widths[orbit_id[tb.index_of(rep.r, rep.q)]] = rep.width
    return tb, orbit_id, widths


def _cusp_ratio_sum(N, n, rep, tb, orbit_id, widths):
    """Width-normalized diagonal-ratio sum over the degree-n coset
    representatives, at the cusp of rep.

    Any integral unimodular matrix sending the image cusp to infinity makes
    the conjugate upper triangular; the true scaling differs from it by a
    width dilation, contributing width(source)/width(target) to the ratio.
    """
    from trace_kit.matrix_forms import mat_mul

    total = QQ(0)
    C = rep.matrix
    for a0 in divisors(n):
        if math.gcd(a0, N) != 1:
            continue
        d0 = n // a0
        for b0 in range(d0):
            B = mat_mul((a0, b0, 0, d0), C)
            p, q = B[0], B[2]
            g = math.gcd(p, q)
            p, q = p // g, q // g
            _, x, y = xgcd(p, q)
            scal = (x, y, -q, p)  # determinant x*p + y*q = 1
            full = mat_mul(scal, B)
            assert full[2] == 0
            target = orbit_id[tb.index_of(q, x)]
            total += QQ(full[0], full[3]) * QQ(rep.width, widths[target])
    return total


def test_coset_ratio_sums():
    # width-normalized ratio sums: cusp-independent and equal to the coset
    # count when gcd(n, N) = 1; in general the cusp average carries the count
    # (N=2, n=2 gives 3 at the zero cusp and 1 at infinity, averaging to 2)
    for N in range(1, 9):
        tb, orbit_id, widths = _cusp_orbit_data(N)
        for n in range(1, 7):
            expected = sigma1_N(N, n)
            vals = [
                _cusp_ratio_sum(N, n, rep, tb, orbit_id, widths)
                for rep in cusp_reps(N)
            ]
            assert sum(vals, QQ(0)) == expected * len(vals), (N, n, vals)
            if math.gcd(n, N) == 1:
                assert all(v == expected for v in vals), (N, n, vals)
    tb, orbit_id, widths = _cusp_orbit_data(2)
    reps = cusp_reps(2)
    assert sorted(
        _cusp_ratio_sum(2, 2, rep, tb, orbit_id, widths) for rep in reps
    ) == [1, 3]


def test_eisenstein_examples():
    t1 = trivial_character(1)
    t4 = trivial_character(4)
    assert eisenstein_trace(4, t4, 4, 1) == 3
    assert eisenstein_trace(4, t4, 2, 1) == 2
    assert eisenstein_trace(1, t1, 12, 2) == 2049
    assert coboundary_trace(1, t1, 12, 2) == 2049
    assert coboundary_trace(1, t1, 2, 1) == 0


def test_eisenstein_validation():
    t1 = trivial_character(1)
    t4 = trivial_character(4)
    for trace in (eisenstein_trace, coboundary_trace):
        with pytest.raises(ValueError, match="modulus"):
            trace(2, t4, 4, 3)
        with pytest.raises(ValueError, match="n >= 1"):
            trace(1, t1, 4, 0)
    for trace in (eisenstein_trace_atkin, coboundary_trace_atkin):
        with pytest.raises(ValueError, match="n >= 1"):
            trace(6, 2, 4, 0)
        with pytest.raises(ValueError, match="even k"):
            trace(6, 2, 3, 1)
        with pytest.raises(ValueError, match="exact divisor"):
            trace(12, 2, 4, 1)


def test_eisenstein_equals_coboundary():
    for N in range(1, 13):
        for chi in enumerate_characters(N):
            for k in range(2, 13):
                if chi.parity() != (1 if k % 2 == 0 else -1):
                    continue
                for n in range(1, 11):
                    assert eisenstein_trace(N, chi, k, n) == coboundary_trace(N, chi, k, n)


def test_weight_two_dimension():
    for N in range(1, 21):
        chiN = trivial_character(N)
        assert eisenstein_trace(N, chiN, 2, 1) == cusp_count(N) - 1


def test_unit_lifts_checks_the_crt_modulus(monkeypatch):
    # the CRT class of (a mod r, d mod s) lives mod N/(r,s); a wrong modulus
    # raises, under python -O too
    assert cusp_terms._unit_lifts(6, trivial_character(6), 1, 1)
    monkeypatch.setattr(cusp_terms, "crt_solve", lambda residues: (0, 1))
    with pytest.raises(ArithmeticError, match="gave modulus 1, not 6"):
        cusp_terms._unit_lifts(6, trivial_character(6), 1, 1)
