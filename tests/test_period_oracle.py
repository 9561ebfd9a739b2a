import ast
import functools
import importlib.util
import math
import pkgutil
import random
import tracemalloc
from fractions import Fraction
from itertools import chain
from operator import mul
from pathlib import Path

import pytest

import trace_kit
import trace_kit.period_oracle as po
from trace_kit.arith import QQ, divisors, euler_phi, gegenbauer, index_phi1, sigma1_N
from trace_kit.cusp_terms import admissible_cusp_reps
from trace_kit.dirichlet import (
    CycloNum,
    cyclo_inverse,
    enumerate_characters,
    mult_matrix,
    trivial_character,
    zeta_power,
)
from trace_kit.hecke_operator import GroupRingElem, build_Tn, build_Tn_infty
from trace_kit.matrix_forms import (
    IDENT,
    S,
    T,
    U,
    in_atkin_coset,
    mat_det,
    mat_inv_unimodular,
    mat_mul,
    mat_neg,
    sigma_det,
)
from trace_kit.period_oracle import (
    atkin_coset_desc,
    coset_table,
    dim_period_space,
    dim_translation_fixed,
    hecke_coset_desc,
    period_module,
    sigma_block_map,
    trace_coboundary,
    trace_on_V,
    trace_on_W,
    weight_action,
)
from trace_kit.trace_formulas import trace_hecke_cusp
from trace_kit.verification import _DIM_LEVELS, _parity_chars, eta_product

from class_weights import c_class_closed


def _zero(mod):
    """The zero plane vector: one list of values per power of zeta."""
    return [[0] * mod.dim for _ in range(mod.g)]


def _dense(mod, planes):
    """The plane vector of a Subspace's per-plane (coordinates, values)
    layout."""
    vec = _zero(mod)
    for dst, (coords, values) in zip(vec, planes):
        for s, x in zip(coords, values):
            dst[s] = x
    return vec


def _entries(vec):
    """The sparse vector of a plane vector: coordinate -> coefficient tuple,
    nonzero tuples only."""
    return {s: t for s, t in enumerate(zip(*vec)) if any(t)}


def _plane_vector(mod, vec, d=1):
    """The plane vector of a sparse vector, divided by d."""
    out = _zero(mod)
    for s, t in vec.items():
        for plane, x in zip(out, t):
            plane[s] = x if d == 1 else QQ(x, d)
    return out


def _apply(mod, sigma, op, vectors, fold=False):
    """Apply sum(q_M * |_Sigma M) to a list of plane vectors: each row t of
    mod.rows dotted with every plane of a vector at the sources of its
    target point t // (w+1) (0 where those miss the vector's coordinates),
    and the image planes of exponent e twisted by zeta^e.  With fold, the
    vectors are in Ker(1+S) coordinates (_expand)."""
    w1 = mod.w + 1
    rows = mod.rows(sigma, op, fold=fold)
    twists = {exp: mult_matrix(mod.order, zeta_power(mod.order, exp)) for exp in rows}
    outs = []
    for vec in vectors:
        out = _zero(mod)
        used = {s for plane in vec for s, x in enumerate(plane) if x}
        for exp, (sources, coefficients) in rows.items():
            acc = [
                [
                    sum(map(mul, coefs, map(plane.__getitem__, sources[t // w1]))) if not used.isdisjoint(sources[t // w1]) else 0
                    for t, coefs in enumerate(coefficients)
                ]
                for plane in vec
            ]
            if any(map(any, acc)):
                po._add_scaled(out, twists[exp], acc)
        outs.append(out)
    return outs


@functools.lru_cache(maxsize=8)
def _off_pivots(mod):
    """(s, p, multiplication matrix of t) for each coordinate s off the
    pivot p of a vector {p: 1, s: t} of kernel_one_plus_S."""
    bs, pivots = mod.kernel_one_plus_S()
    return [(s, p, mult_matrix(mod.order, t)) for b, p in zip(bs, pivots) for s, t in b.items() if s != p]


def _expand(mod, vec):
    """The full plane vector of a vector of Ker(1+S) given by its values at
    the pivots of kernel_one_plus_S: each of its vectors times the value at
    its pivot, that is, t times that value at each other coordinate s of a
    vector {p: 1, s: t}."""
    out = [list(plane) for plane in vec]
    for s, p, tmat in _off_pivots(mod):
        for plane, row in zip(out, tmat):
            plane[s] = sum(z * src[p] for z, src in zip(row, vec))
    return out


def _basis(mod, space):
    """The basis of a Subspace as full plane vectors."""
    dense = [_dense(mod, vp) for vp in space.planes]
    return dense if space.kernel is None else [_expand(mod, vec) for vec in dense]


def _int_space(mod, vectors, pivots):
    """The Subspace of plane vectors that are the field's 1 at their own
    pivot and 0 at the others' pivots, each scaled by the lcm of its
    denominators."""
    scales = [math.lcm(*(x.denominator for plane in v for x in plane)) for v in vectors]
    ints = [_entries([[int(x * d) for x in plane] for plane in v]) for v, d in zip(vectors, scales)]
    return po.Subspace(mod, ints, pivots, scales)


def _period_space(mod):
    """(basis of Ker(1+S) intersect Ker(1+U+U^2) over the value field as
    plane vectors, its pivots): the cached basis before its integer
    scaling."""
    vectors, pivots, dens = mod._scaled_period_space()
    return [_expand(mod, _plane_vector(mod, vec, d)) for vec, d in zip(vectors, dens)], pivots


def _act(mod, sigma, m, vec):
    """vec acted on by the single matrix m through the coset descriptor sigma."""
    return _apply(mod, sigma, {m: 1}, [vec])[0]


T1 = trivial_character(1)


def test_projective_line_sizes():
    for N in (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12):
        assert len(coset_table(N)) == index_phi1(N)


def _unit_orbit_classes(N):
    """Reference P^1(Z/N): every primitive pair mod N mapped to the least of
    its multiples by the units mod N."""
    units = [u for u in range(N) if math.gcd(u, N) == 1]
    return {
        (c, d): min(((u * c) % N, (u * d) % N) for u in units)
        for c in range(N)
        for d in range(N)
        if math.gcd(c, d, N) == 1
    }


def test_projective_line_matches_the_unit_orbit_reference():
    # index_of splits the primitive pairs into the unit orbits, one index
    # per orbit; each point and the bottom row of its lift read back their
    # own index
    for N in list(range(1, 61)) + [120, 210]:
        tb = coset_table(N)
        index = {}
        for (c, d), orbit in _unit_orbit_classes(N).items():
            i = tb.index_of(c, d)
            assert index.setdefault(orbit, i) == i, (N, c, d)
        assert sorted(index.values()) == list(range(len(tb))), N
        for i, (point, lift) in enumerate(zip(tb.points, tb.lifts)):
            assert mat_det(lift) == 1, (N, i)
            assert (lift[2] - point[0]) % N == 0 and (lift[3] - point[1]) % N == 0, (N, i)
            assert tb.index_of(*point) == i and tb.index_of(lift[2], lift[3]) == i, (N, i)


def test_memo_tables_are_bounded():
    for table in (coset_table, period_module):
        assert table.cache_info().maxsize is not None
    # recomputed at each use: a level-sized map, a weight action that at
    # high weight is a large matrix of big ints rarely asked for twice, and
    # the class table of an operator, as large as the operator
    assert not hasattr(sigma_block_map, "cache_info")
    assert not hasattr(weight_action, "cache_info")
    assert not hasattr(po._coset_classes, "cache_info")


def test_every_memo_table_is_bounded():
    # every lru_cache of the package, found by walking its modules and their
    # classes, so a new memo table is covered without being listed here
    tables = {}
    for info in pkgutil.iter_modules(trace_kit.__path__):
        module = importlib.import_module(f"trace_kit.{info.name}")
        for obj in vars(module).values():
            for fn in [obj, *vars(obj).values()] if isinstance(obj, type) else [obj]:
                fn = getattr(fn, "__func__", fn)  # staticmethod and classmethod
                if hasattr(fn, "cache_info"):
                    tables[f"{fn.__module__}.{fn.__qualname__}"] = fn.cache_info().maxsize
    assert "trace_kit.arith.factorize" in tables and "trace_kit.period_oracle.period_module" in tables
    assert [name for name, maxsize in tables.items() if maxsize is None] == []


def test_a_range_of_degrees_does_not_grow_memory():
    # the coset action is level-sized and recomputed per degree: once the
    # basis and the first trace are built, further degrees retain only
    # their small weight actions
    chi = trivial_character(210)
    ops = {n: build_Tn(n) for n in range(2, 9)}
    trace_on_W(210, chi, 0, hecke_coset_desc(210, 2), ops[2])
    tracemalloc.start()
    try:
        for n in range(3, 9):
            trace_on_W(210, chi, 0, hecke_coset_desc(210, n), ops[n])
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20, grown


def test_period_module_bound_holds_the_criteria_grid():
    # criteria 4 and 5 run in one process, and 5 revisits the modules 4
    # opened; a bound below their number rebuilds every basis
    keys = {
        (N, chi, k - 2)
        for N in (*_DIM_LEVELS, *range(1, 10))
        for k in range(2, 13)
        for chi in _parity_chars(N, k)
    }
    assert len(keys) <= period_module.cache_info().maxsize


def test_coset_lifts_and_lookup():
    for N in (1, 4, 6, 9, 12):
        tb = coset_table(N)
        for i, lift in enumerate(tb.lifts):
            assert mat_det(lift) == 1
            assert tb.index_of(lift[2], lift[3]) == i
        rng = random.Random(N)
        for _ in range(20):
            g = (1, 0, 0, 1)
            for _ in range(6):
                g = mat_mul(g, rng.choice((S, T, (1, -1, 0, 1))))
            # the unimodular action sends block i to block j with
            # lifts[i] g lifts[j]^-1 in the level-N group, twisted by its
            # top-left entry
            for j, (i, arg) in enumerate(sigma_block_map(hecke_coset_desc(N, 1), g)):
                conn = mat_mul(mat_mul(tb.lifts[i], g), mat_inv_unimodular(tb.lifts[j]))
                assert conn[2] % N == 0 and arg == conn[0] % N, (N, g, j)


def test_weight_action_trace_is_gegenbauer():
    rng = random.Random(2)
    count = 0
    while count < 50:
        m = tuple(rng.randint(-5, 5) for _ in range(4))
        if mat_det(m) <= 0:
            continue
        count += 1
        for w in (0, 1, 2, 5, 8):
            wm = weight_action(m, w)
            assert sum(wm[r][r] for r in range(w + 1)) == gegenbauer(
                w, m[0] + m[3], mat_det(m)
            )


def _binomial_weight_action(m, w):
    """Reference weight action: column i of (aX+b)^i (cX+d)^(w-i) as the
    product of the binomial rows C(i,s) a^s b^(i-s) and C(w-i,r) c^r
    d^(w-i-r)."""
    a, b, c, d = m
    top = [[math.comb(i, s) * a**s * b ** (i - s) for s in range(i + 1)] for i in range(w + 1)]
    bot = [[math.comb(i, r) * c**r * d ** (i - r) for r in range(i + 1)] for i in range(w + 1)]
    cols = []
    for t, u in zip(top, reversed(bot)):
        col = [0] * (w + 1)
        for s, x in enumerate(t):
            for r, y in enumerate(u, s):
                col[r] += x * y
        cols.append(col)
    return tuple(zip(*cols))


def test_weight_action_matches_the_binomial_reference():
    # the column recurrence divides by d, or by b walking the other way when
    # d = 0; zero entries in every position, singular matrices among them
    rng = random.Random(21)
    shapes = [(), (0,), (1,), (2,), (3,), (1, 3), (0, 2), (2, 3)]
    for w in (0, 1, 2, 5, 10, 30):
        for zeros in shapes:
            for _ in range(12):
                m = [rng.randint(-12, 12) or 1 for _ in range(4)]
                for z in zeros:
                    m[z] = 0
                m = tuple(m)
                assert weight_action(m, w) == _binomial_weight_action(m, w), (m, w)
    for m in (S, T, U, IDENT, (0, 0, 3, 0), (0, 0, 0, 0)):
        for w in (0, 1, 2, 5, 10, 30):
            assert weight_action(m, w) == _binomial_weight_action(m, w), (m, w)


def test_generator_relations_on_module():
    for N, chi_idx, w in ((1, 0, 10), (4, 1, 3), (5, 1, 2)):
        chars = enumerate_characters(N)
        chi = chars[chi_idx]
        if chi.parity() != (1 if w % 2 == 0 else -1):
            chi = [c for c in chars if c.parity() == (1 if w % 2 == 0 else -1)][0]
        mod = period_module(N, chi, w)
        rng = random.Random(5)
        vec = _zero(mod)
        for c in range(mod.g):
            for i in range(mod.dim):
                vec[c][i] = QQ(rng.randint(-4, 4))
        s2 = _act(mod, mod.unimodular, S, _act(mod, mod.unimodular, S, vec))
        assert s2 == vec
        u3 = _act(mod, mod.unimodular, U, _act(mod, mod.unimodular, U, _act(mod, mod.unimodular, U, vec)))
        assert u3 == vec


def test_translation_permutation_at_weight_zero():
    # at weight zero the translation acts by a twisted point permutation
    mod = period_module(6, trivial_character(6), 0)
    vec = _zero(mod)
    vec[0][3] = QQ(1)
    out = _act(mod, mod.unimodular, T, vec)
    assert sorted(out[0]) == sorted(vec[0])


def test_period_space_dims():
    assert dim_period_space(1, T1, 10) == 3
    assert dim_period_space(1, T1, 0) == 0
    # dim W = 2 dim S + dim C; level 11 weight 2: genus 1, 2 cusps -> 2+1
    assert dim_period_space(11, trivial_character(11), 0) == 3


def _reference_rref(rows, m):
    """Reference dense elimination: reduce plane-vector rows over Q(zeta_m)
    to reduced echelon form in place, scaling and clearing by
    multiplication matrices; returns the pivot columns."""
    one = zeta_power(m, 0)
    pivots = []
    r = 0
    for col in range(len(rows[0][0]) if rows else 0):
        piv = next((rr for rr in range(r, len(rows)) if any(plane[col] for plane in rows[rr])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        lead = tuple(plane[col] for plane in prow)
        if lead != one:
            scaled = [[0] * len(plane) for plane in prow]
            po._add_scaled(scaled, mult_matrix(m, cyclo_inverse(m, lead)), prow)
            prow = rows[r] = scaled
        for rr, row in enumerate(rows):
            f = [plane[col] for plane in row]
            if rr != r and any(f):
                po._add_scaled(row, mult_matrix(m, [-x for x in f]), prow)
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def _reference_nullspace(rows, m, ncols):
    """(plane-vector basis of the common kernel of plane-vector rows, free
    columns) by the reference dense elimination: vector k is the field's 1
    at free column k and 0 at the others."""
    work = [row for row in rows if any(any(plane) for plane in row)]
    pivots = _reference_rref(work, m)
    free = [fc for fc in range(ncols) if fc not in pivots]
    basis = []
    for fc in free:
        vec = [[0] * ncols for _ in range(euler_phi(m))]
        vec[0][fc] = 1
        for row, pc in zip(work, pivots):
            for dst, src in zip(vec, row):
                dst[pc] = -src[fc]
        basis.append(vec)
    return basis, free


def _reference_period_space(mod):
    """(basis, pivots) of the period space by the reference dense
    elimination of the images of the Ker(1+S) vectors, each W vector
    rebuilt densely from them."""
    bs, bpivots = mod.kernel_one_plus_S()
    dense = [_plane_vector(mod, vec) for vec in bs]
    images = _apply(mod, mod.unimodular, {IDENT: 1, U: 1, mat_mul(U, U): 1}, dense)
    rows = [[[img[c][r] for img in images] for c in range(mod.g)] for r in range(mod.dim)]
    combos, free = _reference_nullspace(rows, mod.order, len(bs))
    out = []
    for combo in combos:
        acc = _zero(mod)
        for coef, bvec in zip(zip(*combo), dense):
            if any(coef):
                po._add_scaled(acc, mult_matrix(mod.order, coef), bvec)
        out.append(acc)
    return out, [bpivots[fc] for fc in free]


def _in_span(mod, vec, space, basis):
    """Whether the plane vector vec lies in the span of a Subspace whose
    basis, as full plane vectors, is basis, vector k reading d_k at its own
    pivot and 0 at the others': L vec - sum_k vec[p_k] (L / d_k) basis_k is
    zero, L = lcm(d_k), by dense planes."""
    resid = [[space.L * x for x in plane] for plane in vec]
    for basis_k, p, f in zip(basis, space.pivots, space.factors):
        coef = [-plane[p] * f for plane in vec]
        if any(coef):
            po._add_scaled(resid, mult_matrix(mod.order, coef), basis_k)
    return not any(any(plane) for plane in resid)


def _reference_trace(mod, sigma, op, space):
    """The pivot read before packing: the full image of each basis vector
    through _apply, certified by the dense residual of _in_span, then
    its coordinate on itself read off its pivot."""
    den = math.lcm(*(q.denominator for q in op.coeffs.values()))
    ints = {m: int(q * den) for m, q in op.coeffs.items()}
    basis = _basis(mod, space)
    images = _apply(mod, sigma, ints, basis)
    total = [0] * mod.g
    for v, p, f in zip(images, space.pivots, space.factors):
        if not _in_span(mod, v, space, basis):
            raise RuntimeError("operator does not preserve the subspace")
        total = [t + plane[p] * f for t, plane in zip(total, v)]
    return CycloNum(mod.order if mod.g > 1 else 1, [QQ(t, space.L * den) for t in total])


def _workloads():
    """The benchmark's workloads module: the spaces oracle-verify visits."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _oracle_spaces():
    """The (N, character index, k) spaces of the benchmark's oracle-verify
    workload."""
    return _workloads().ORACLE_SPACES


def test_period_space_matches_the_dense_reference():
    # the sparse integer elimination against the dense Q(zeta) one, on the
    # benchmark's oracle spaces, every parity character for N <= 16, w <= 6
    # and for N in {21, 39}, w <= 2: same dimension, same span, reduced at
    # its own pivots
    spaces = [(N, enumerate_characters(N)[ci], k - 2) for N, ci, k in _oracle_spaces()]
    spaces += [(N, chi, w) for N in range(1, 17) for w in range(7) for chi in _parity_chars(N, w + 2)]
    # the elimination keeps the rows of one point per U-orbit; U fixes
    # points of P^1(Z/21) and P^1(Z/39), and the reference keeps every row
    spaces += [(N, chi, w) for N in (21, 39) for w in range(3) for chi in _parity_chars(N, w + 2)]
    for N in (21, 39):
        assert any(i == j for j, (i, _) in enumerate(sigma_block_map(hecke_coset_desc(N, 1), U))), N
    orders = set()
    for N, chi, w in spaces:
        mod = period_module(N, chi, w)
        vectors, pivots = _period_space(mod)
        ref, ref_pivots = _reference_period_space(mod)
        assert len(vectors) == len(pivots) == len(ref), (N, chi.label(), w)
        for k, vec in enumerate(vectors):
            for c, plane in enumerate(vec):
                assert [plane[p] for p in pivots] == [int((c, j) == (0, k)) for j in range(len(pivots))]
        # membership is tested on integer multiples of the vectors
        ours, theirs = _int_space(mod, vectors, pivots), _int_space(mod, ref, ref_pivots)
        mine, ref_basis = _basis(mod, ours), _basis(mod, theirs)
        assert all(_in_span(mod, vec, theirs, ref_basis) for vec in mine), (N, chi.label(), w)
        assert all(_in_span(mod, vec, ours, mine) for vec in ref_basis), (N, chi.label(), w)
        orders.add(chi.order)
    assert {3, 4, 10} <= orders


def test_kernel_sum_spans_module():
    # Ker(1+S) + Ker(1+U+U^2) is everything except in the degenerate case,
    # where it has codimension one
    for N, w in ((1, 0), (1, 4), (2, 0), (4, 2), (6, 0)):
        chi = trivial_character(N)
        mod = period_module(N, chi, w)
        bs, _ = mod.kernel_one_plus_S()
        # dim Ker(1+U+U^2) via the structured route: images of (1-U)
        # instead compute rank of (1+U+U^2) acting on the whole module
        dim = mod.dim
        cols = []
        for i in range(dim):
            e = _zero(mod)
            e[0][i] = QQ(1)
            vu = _act(mod, mod.unimodular, U, e)
            vuu = _act(mod, mod.unimodular, U, vu)
            img = [x + y + z for x, y, z in zip(e[0], vu[0], vuu[0])]
            cols.append(img)
        # rank over Q
        rows = [[cols[c][r] for c in range(dim)] for r in range(dim)]
        work = [list(r) for r in rows if any(r)]
        pivots = _reference_rref([[r] for r in work], mod.order)
        rank_uuu = len(pivots)
        dim_ker_uuu = dim - rank_uuu
        dim_w = dim_period_space(N, chi, w)
        span_dim = len(bs) + dim_ker_uuu - dim_w
        if (w, True) == (0, chi.is_trivial()):
            assert span_dim == dim - 1, (N, w)
        else:
            assert span_dim == dim, (N, w)


def test_trace_identity_single_matrix():
    # trace over the whole module of one double-coset action factors as
    # (symmetric-power trace) * (class weight)
    rng = random.Random(7)
    for N in (1, 2, 3, 4, 6, 8):
        for chi in enumerate_characters(N):
            w = 2 if chi.parity() == 1 else 3
            for _ in range(6):
                n = rng.randint(1, 8)
                m = None
                while m is None:
                    cand = tuple(rng.randint(-6, 6) for _ in range(4))
                    if mat_det(cand) == n:
                        m = cand
                op = GroupRingElem(n, {m: QQ(1)})
                lhs = trace_on_V(N, chi, w, hecke_coset_desc(N, n), op)
                rhs = c_class_closed(N, chi, m) * gegenbauer(w, m[0] + m[3], n)
                assert lhs == rhs, (N, chi.label(), m)


def _scan_block_map(sigma, m):
    """Reference for sigma_block_map: scan every point for a source lift A_i
    with A_i m A_j^-1 in the double coset."""
    N, ell, n = sigma
    lifts = coset_table(N).lifts
    out = []
    for Aj in lifts:
        y = mat_mul(m, mat_inv_unimodular(Aj))
        entry = None
        for i, Ai in enumerate(lifts):
            cand = mat_mul(Ai, y)
            if in_atkin_coset(cand, N, ell, n):
                entry = (i, (cand[0] if ell == 1 else 1) % N)
                break
        out.append(entry)
    return tuple(out)


def test_block_map_equals_reference_scan():
    # the direct P^1(Z/N) lookup finds the same source as the scan, on the
    # supports of both operators at every level up to 30
    pairs = 0
    for N in range(1, 31):
        jobs = [(hecke_coset_desc(N, n), n) for n in range(1, 9)]
        jobs += [
            (atkin_coset_desc(N, ell, n), n * ell)
            for ell in divisors(N)
            if ell > 1 and math.gcd(ell, N // ell) == 1
            for n in range(1, 12 // ell + 1)
        ]
        for sigma, det in jobs:
            for m in sorted(set(build_Tn(det).coeffs) | set(build_Tn_infty(det).coeffs)):
                assert sigma_block_map(sigma, m) == _scan_block_map(sigma, m), (sigma, m)
                pairs += 1
    assert pairs == 10004


def _blockwise_apply(mod, sigma, op, vectors):
    """Reference for PeriodModule.rows: every term on its own, its weight action
    applied to the source block of each point and twisted by chi there."""
    w1 = mod.w + 1
    outs = []
    for vec in vectors:
        out = _zero(mod)
        for m, q in op.items():
            wm = weight_action(m, mod.w)
            for j, ent in enumerate(sigma_block_map(sigma, m)):
                if ent is None:
                    continue
                i, arg = ent
                term = _zero(mod)
                for dst, src in zip(term, vec):
                    for r in range(w1):
                        dst[j * w1 + r] = q * sum(wm[r][c] * src[i * w1 + c] for c in range(w1))
                zeta = mult_matrix(mod.order, zeta_power(mod.order, mod.chi.value_exponent(arg)))
                po._add_scaled(out, zeta, term)
        outs.append(out)
    return outs


def _random_vectors(mod, rng):
    """Integer and Fraction vectors, supported on two points and dense."""
    w1 = mod.w + 1
    vectors = []
    for exact in (int, Fraction):
        for points in (rng.sample(range(mod.npoints), 2), range(mod.npoints)):
            vec = _zero(mod)
            for plane in vec:
                for p in points:
                    for r in range(w1):
                        x = rng.randint(-5, 5)
                        plane[p * w1 + r] = x if exact is int else Fraction(x, rng.randint(1, 6))
            vectors.append(vec)
    return vectors


def test_apply_operator_equals_the_blockwise_reference():
    rng = random.Random(13)
    jobs = []
    # Hecke cosets under characters of order 1, 2, 4 and 10
    for N, ci, w in ((6, 0, 2), (4, 1, 1), (5, 1, 1), (11, 1, 1)):
        for n in (2, 3, 4):
            jobs.append((N, enumerate_characters(N)[ci], w, hecke_coset_desc(N, n), build_Tn(n).coeffs))
    # composed Atkin-Lehner cosets with ell = 2 and ell = 5
    for N, ell, n in ((6, 2, 1), (6, 2, 2), (10, 5, 1)):
        jobs.append((N, trivial_character(N), 2, atkin_coset_desc(N, ell, n), build_Tn(ell * n).coeffs))
    # m and -m act alike under the trivial character at even weight, so
    # their terms cancel within every block they reach
    m = sorted(build_Tn(2).coeffs)[0]
    cancelling = {m: 1, mat_neg(m): -1}
    jobs.append((6, trivial_character(6), 2, hecke_coset_desc(6, 2), cancelling))
    jobs.append((6, trivial_character(6), 2, hecke_coset_desc(6, 2), {**cancelling, (1, 0, 0, 2): 3}))
    # a determinant the coset does not have: every image is zero
    jobs.append((6, trivial_character(6), 2, hecke_coset_desc(6, 2), build_Tn(3).coeffs))
    for N, chi, w, sigma, op in jobs:
        mod = period_module(N, chi, w)
        vectors = _random_vectors(mod, rng)
        # row t is aligned with the sources of its target point
        w1 = w + 1
        for sources, coefficients in mod.rows(sigma, op).values():
            assert len(sources) == mod.npoints and len(coefficients) == mod.dim
            for t, coefs in enumerate(coefficients):
                assert len(coefs) == len(sources[t // w1]), (N, chi.label(), w, sigma, t)
        images = _apply(mod, sigma, op, vectors)
        assert images == _blockwise_apply(mod, sigma, op, vectors), (N, chi.label(), w, sigma)
        # alone, each vector has the image it has among the others
        for vec, image in zip(vectors, images):
            assert _apply(mod, sigma, op, [vec]) == [image], (N, chi.label(), w, sigma)
        zero = op is cancelling or sigma_det(sigma) != mat_det(next(iter(op)))
        assert zero == (not any(any(plane) for image in images for plane in image)), (sigma, op)


def _dense_vector(mod, rng):
    """One integer plane vector with every coordinate drawn from [-5, 5]."""
    return [[rng.randint(-5, 5) for _ in range(mod.dim)] for _ in range(mod.g)]


def test_derived_rows_apply_as_the_per_matrix_walk():
    # rows walks one matrix per class of the operator and derives the others
    # through S, U and U^2; the reference walks every matrix on its own.
    # Every T_n, n <= 16, under characters of order 1, 2, 3, 4 and 10, at odd
    # weight too, where the derived matrix may be -M for an operator key M;
    # weight 0 at level 30 keeps the dense reference quick
    rng = random.Random(23)
    orders = set()
    for label, w in (("7.2", 2), ("11.0", 2), ("11.3", 1), ("12.1", 1), ("15.1", 1), ("16.5", 1), ("30.0", 0), ("30.5", 0)):
        N, ci = map(int, label.split("."))
        chi = enumerate_characters(N)[ci]
        mod = period_module(N, chi, w)
        vec = _dense_vector(mod, rng)
        for n in range(1, 17):
            op = build_Tn(n).coeffs
            sigma = hecke_coset_desc(N, n)
            assert _apply(mod, sigma, op, [vec]) == _blockwise_apply(mod, sigma, op, [vec]), (label, n)
        orders.add(chi.order)
    assert orders == {1, 2, 3, 4, 10}
    # composed cosets, trivial character
    for N, ell in ((6, 2), (12, 3), (15, 5), (30, 5)):
        mod = period_module(N, trivial_character(N), 2)
        vec = _dense_vector(mod, rng)
        for n in range(1, 16 // ell + 1):
            sigma, op = atkin_coset_desc(N, ell, n), build_Tn(ell * n).coeffs
            assert _apply(mod, sigma, op, [vec]) == _blockwise_apply(mod, sigma, op, [vec]), (N, ell, n)


def test_derived_rows_compose_from_the_walked_matrix():
    # a class walked as m, then -(m S) reached as (m S) and its child
    # -(m S) U as (m S) U: each derived matrix is composed from the matrix
    # its parent's map stands for, m S, not from the key -(m S), which at
    # odd weight acts with the opposite sign on W and on the twist
    m = sorted(build_Tn(3).coeffs)[0]
    ms = mat_mul(m, S)
    op = {m: 1, mat_neg(ms): 2, mat_neg(mat_mul(ms, U)): -3, mat_mul(ms, mat_mul(U, U)): 5}
    assert [len(cls) for cls in po._coset_classes(op)] == [4]
    rng = random.Random(5)
    for N, ci in ((4, 1), (5, 1), (7, 1)):
        chi = enumerate_characters(N)[ci]
        assert chi.parity() == -1
        mod = period_module(N, chi, 3)
        vec = _dense_vector(mod, rng)
        sigma = hecke_coset_desc(N, 3)
        assert _apply(mod, sigma, op, [vec]) == _blockwise_apply(mod, sigma, op, [vec]), N


def _kernel_vector(mod, rng):
    """An integer plane vector in Ker(1+S) coordinates: every plane drawn
    from [-5, 5] at the pivots of kernel_one_plus_S, 0 elsewhere."""
    vec = _zero(mod)
    for plane in vec:
        for p in mod._fold.pivots:
            plane[p] = rng.randint(-5, 5)
    return vec


def _label_char(label):
    N, ci = map(int, label.split("."))
    return N, enumerate_characters(N)[ci]


def test_folded_rows_apply_as_the_unfolded_rows_on_the_expansion():
    # rows with fold read a vector of Ker(1+S) at the pivots only, and give
    # the image the unfolded rows give on the whole vector.  S fixes 2
    # points of P^1(Z/13) and 4 of P^1(Z/65): at w = 2 their middle
    # coordinate is a pivot, at w = 0 and 4 it is dropped.  Odd characters
    # of order 4 and 12 at odd weight, 11.3 of order 10, and composed cosets
    rng = random.Random(31)
    jobs = []
    for label, w in (
        ("13.0", 0), ("13.0", 2), ("13.0", 4), ("13.2", 2), ("13.3", 1), ("13.1", 3),
        ("65.1", 1), ("65.3", 1), ("11.3", 1), ("5.1", 3),
    ):
        N, chi = _label_char(label)
        jobs += [(N, chi, w, hecke_coset_desc(N, n), build_Tn(n).coeffs) for n in (1, 2, 3, 5)]
    for N, ell in ((6, 2), (10, 5), (15, 5)):
        jobs += [(N, trivial_character(N), 2, atkin_coset_desc(N, ell, n), build_Tn(ell * n).coeffs) for n in (1, 2, 3)]
    middles, odd_orders = set(), set()
    for N, chi, w, sigma, op in jobs:
        mod = period_module(N, chi, w)
        fold = mod._fold
        assert set(fold.pivots).issuperset(chain.from_iterable(
            chain.from_iterable(sources for sources, _ in mod.rows(sigma, op, fold=True).values())
        ))
        vec = _kernel_vector(mod, rng)
        want = _apply(mod, sigma, op, [_expand(mod, vec)])
        assert _apply(mod, sigma, op, [vec], fold=True) == want, (N, chi.label(), w, sigma)
        fixed = [j for j, (i, _) in enumerate(sigma_block_map(mod.unimodular, S)) if i == j]
        if fixed and w % 2 == 0:
            middles.add("dropped" if fold.dropped else "kept")
        if w % 2:
            odd_orders.add(chi.order)
    assert middles == {"dropped", "kept"} and odd_orders == {4, 10, 12}


def test_only_the_kernel_relations_see_a_broken_row_off_the_pivots(monkeypatch):
    # the certificate has two halves: the residual at the pivots of
    # kernel_one_plus_S, and the Ker(1+S) relations at every other
    # coordinate, 0 at a dropped middle one.  One row off the pivots, one
    # entry off by one, changes no value that the trace or the residual
    # reads, so only the relations see it: with them removed, the broken
    # operator passes.  At level 13, weight 4, S fixes two points whose
    # middle coordinate is dropped, and the broken row is one of those
    for label, w, n in (("11.0", 2, 2), ("13.1", 1, 3), ("65.1", 3, 2), ("13.0", 4, 2)):
        N, chi = _label_char(label)
        sigma, op = hecke_coset_desc(N, n), build_Tn(n)
        want = trace_on_W(N, chi, w, sigma, op)
        mod = po.PeriodModule(N, chi, w)  # not the cached module: its space is changed below
        space = mod.period_basis
        off = mod._fold.dropped or sorted(s for coords, _, _ in mod._fold.relations for s in coords)
        rows = mod.rows

        def broken(sigma, op, fold=False):
            out = rows(sigma, op, fold)
            for sources, coefficients in out.values():
                for t in off:
                    # a source at the pivot of basis vector k, which is d_k there
                    for c, s in enumerate(sources[t // (w + 1)]):
                        if s in space.pivots:
                            coefficients[t][c] += 1
                            return out
            raise AssertionError("no row off the pivots reads a basis pivot")

        monkeypatch.setattr(mod, "rows", broken)
        with pytest.raises(RuntimeError, match="does not preserve"):
            po._trace_on_space(mod, sigma, op, space)
        space.kernel = space.kernel._replace(relations=[], dropped=[])
        assert po._trace_on_space(mod, sigma, op, space) == want, label


def test_one_trace_walks_once_per_class(monkeypatch):
    # the coset walk runs once per class of T_n under right multiplication
    # by SL_2(Z), sigma_1(n) of them; the unimodular maps are walked once
    # per module, with its basis
    calls = []
    walk = po.sigma_block_map

    def counted(sigma, m):
        calls.append(sigma)
        return walk(sigma, m)

    monkeypatch.setattr(po, "sigma_block_map", counted)
    for N, chi, w in ((11, trivial_character(11), 2), (15, enumerate_characters(15)[5], 2), (16, enumerate_characters(16)[5], 1)):
        trace_on_W(N, chi, w, hecke_coset_desc(N, 1), build_Tn(1))
        for n in range(1, 17):
            calls.clear()
            trace_on_W(N, chi, w, hecke_coset_desc(N, n), build_Tn(n))
            assert calls == [hecke_coset_desc(N, n)] * sum(divisors(n)), (N, chi.label(), w, n)


def test_rows_fold_the_upper_half_of_an_even_order():
    # zeta^(m/2) = -1 for an even order m: rows keeps only exponents below m/2
    seen = 0
    for N in (15, 16, 30):
        for chi in enumerate_characters(N):
            if chi.order % 2:
                continue
            w = 2 if chi.parity() == 1 else 1
            mod = period_module(N, chi, w)
            for n in range(1, 7):
                exponents = set(mod.rows(hecke_coset_desc(N, n), build_Tn(n).coeffs))
                assert all(e < chi.order // 2 for e in exponents), (chi.label(), n, exponents)
            seen += 1
    assert seen == 21


def test_sigma_block_map_unreachable():
    # a matrix whose conjugates never meet the double coset acts as zero
    sigma = hecke_coset_desc(4, 2)
    bm = sigma_block_map(sigma, (2, 0, 0, 1))
    # top-left entries of candidates are even or the level shares a factor:
    # every block must map somewhere or nowhere consistently; just check shape
    assert len(bm) == len(coset_table(4))
    mod = period_module(4, trivial_character(4), 0)
    vec = _zero(mod)
    for i in range(mod.dim):
        vec[0][i] = QQ(1)
    out = _act(mod, sigma, (2, 4, 4, 10), vec)  # det 4 != 2: never members
    assert not any(any(p) for p in out)


def test_unimodular_map_rejects_a_non_unit_argument(monkeypatch):
    # a coset map whose character argument shares a factor with the level
    # must raise, not twist by a missing exponent
    mod = po.PeriodModule(4, trivial_character(4), 0)
    monkeypatch.setattr(po, "sigma_block_map", lambda sigma, m: [(j, 2) for j in range(mod.npoints)])
    with pytest.raises(RuntimeError, match="not a unit"):
        mod._unimodular_map(S)


def test_action_compatibility():
    # matrix(|_Sigma (gM)) = matrix(|_Sigma M) * matrix(|g)
    rng = random.Random(11)
    N = 4
    chi = trivial_character(N)
    w = 2
    mod = period_module(N, chi, w)
    sigma = hecke_coset_desc(N, 3)
    op3 = build_Tn(3)
    mats = sorted(op3.coeffs)[:4]
    for m in mats:
        for g in (S, T, U):
            gm = mat_mul(g, m)
            vec = _zero(mod)
            for c in range(mod.g):
                for i in range(mod.dim):
                    vec[c][i] = QQ(rng.randint(-3, 3))
            lhs = _act(mod, sigma, gm, vec)
            rhs = _act(mod, sigma, m, _act(mod, mod.unimodular, g, vec))
            assert lhs == rhs, (m, g)


def test_trace_on_W_examples():
    assert trace_on_W(1, T1, 10, hecke_coset_desc(1, 1), build_Tn(1)) == 3
    assert trace_on_W(1, T1, 10, hecke_coset_desc(1, 2), build_Tn(2)) == 2001
    with pytest.raises(ValueError):
        trace_on_W(1, T1, 10, hecke_coset_desc(1, 2), build_Tn(3))


def test_kernel_certification():
    # the period space is annihilated by both defining operators, exactly
    # (9, 4) and (11, 3) reach characters of order 3 and 10, where the
    # elimination mixes planes.  Each cached basis is d_k times the field's 1
    # at its own pivot and 0 at the others' pivots, in every plane, and the
    # integer scaling checks that
    for N, w in ((1, 10), (4, 2), (6, 1), (9, 4), (11, 3)):
        chars = [c for c in enumerate_characters(N) if c.parity() == (1 if w % 2 == 0 else -1)]
        for chi in chars[:2]:
            mod = period_module(N, chi, w)
            for space in (mod.period_basis, mod.translation_basis):
                assert len(space.planes) == len(space.pivots) == len(space.scales)
                for k, (vp, d) in enumerate(zip(space.planes, space.scales)):
                    assert d >= 1
                    for c, plane in enumerate(_dense(mod, vp)):
                        assert [plane[p] for p in space.pivots] == [
                            d if (c, j) == (0, k) else 0 for j in range(len(space.pivots))
                        ], (N, chi.label(), w, k, c)
            vectors, pivots = _period_space(mod)
            if len(pivots) > 1:
                # read at the wrong coordinates, the basis is not reduced
                with pytest.raises(RuntimeError, match="pivots"):
                    _int_space(mod, vectors, pivots[1:] + pivots[:1])
            for v in vectors:
                vs = _act(mod, mod.unimodular, S, v)
                assert all(not any(QQ(x) + QQ(y) for x, y in zip(p, q)) for p, q in zip(v, vs))
                vu = _act(mod, mod.unimodular, U, v)
                vuu = _act(mod, mod.unimodular, U, vu)
                total = [
                    [QQ(x) + QQ(y) + QQ(z) for x, y, z in zip(p, q, r)]
                    for p, q, r in zip(v, vu, vuu)
                ]
                assert not any(any(p) for p in total)


def test_subspace_checks_reducedness_on_whole_tuples():
    # at a character of order 4 a coefficient tuple has two planes; a nonzero
    # zeta coefficient at a vector's own pivot, or at another's, is not the
    # reduced layout, even where plane 0 alone looks right
    chi = next(c for c in enumerate_characters(5) if c.label() == "5.1")
    mod = period_module(5, chi, 1)
    assert mod.g == 2
    bs, pivots = mod.kernel_one_plus_S()
    assert len(po.Subspace(mod, bs, pivots, [1] * len(bs)).planes) == len(bs) > 1
    for k, p, t in ((0, pivots[0], (1, 1)), (1, pivots[1], (1, -1)), (0, pivots[1], (0, 1))):
        bad = [dict(v) for v in bs]
        bad[k][p] = t
        with pytest.raises(RuntimeError, match="not reduced"):
            po.Subspace(mod, bad, pivots, [1] * len(bs))


def test_trace_rejects_an_operator_leaving_the_space():
    # one coset matrix alone is not the universal operator: its images leave
    # the period space and Ker(1 - T), and the zero-residual check sees it
    with pytest.raises(RuntimeError, match="preserve"):
        trace_on_W(1, T1, 10, hecke_coset_desc(1, 2), GroupRingElem(2, {(2, 0, 0, 1): 1}))
    with pytest.raises(RuntimeError, match="preserve"):
        trace_coboundary(
            4, trivial_character(4), 2, hecke_coset_desc(4, 2), GroupRingElem(2, {(1, 1, 0, 2): 1})
        )
    # the packed residual on Q(zeta) planes: characters of order 4 and 10
    for N, label, w in ((5, "5.1", 1), (11, "11.1", 3)):
        chi = next(c for c in enumerate_characters(N) if c.label() == label)
        assert chi.order == {5: 4, 11: 10}[N]
        with pytest.raises(RuntimeError, match="does not preserve"):
            trace_on_W(N, chi, w, hecke_coset_desc(N, 2), GroupRingElem(2, {(2, 0, 0, 1): 1}))


def test_packed_trace_matches_the_pivot_reference():
    # the packed slabs against the pivot read of full images, on every space
    # oracle-verify visits, at every degree it asks for there: trace_on_W on
    # the Hecke and composed cosets, trace_coboundary on Ker(1 - T)
    workloads = _workloads()
    for N, ci, k in workloads.ORACLE_SPACES:
        chi = enumerate_characters(N)[ci]
        mod = period_module(N, chi, k - 2)
        for n in range(1, workloads.ORACLE_MAX_N + 1):
            sigma, op, cob = hecke_coset_desc(N, n), build_Tn(n), build_Tn_infty(n)
            want = _reference_trace(mod, sigma, op, mod.period_basis)
            assert trace_on_W(N, chi, k - 2, sigma, op) == want, (N, ci, k, n)
            want = _reference_trace(mod, sigma, cob, mod.translation_basis)
            assert trace_coboundary(N, chi, k - 2, sigma, cob) == want, (N, ci, k, n)
    for N, ell, k in workloads.ATKIN_SPACES:
        chi = trivial_character(N)
        mod = period_module(N, chi, k - 2)
        for n in range(1, workloads.ORACLE_MAX_N // ell + 1):
            sigma, op = atkin_coset_desc(N, ell, n), build_Tn(n * ell)
            want = _reference_trace(mod, sigma, op, mod.period_basis)
            assert trace_on_W(N, chi, k - 2, sigma, op) == want, (N, ell, k, n)


def test_packed_trace_across_slabs_and_at_wide_slots():
    # level 210 at weight 2 fills several slabs; weight 12 at n = 97 packs
    # the widest slots of the two
    chi = trivial_character(210)
    mod = period_module(210, chi, 0)
    assert len(mod.period_basis.pivots) > 2 * po.SLAB
    for n in (2, 4):
        sigma, op = hecke_coset_desc(210, n), build_Tn(n)
        assert trace_on_W(210, chi, 0, sigma, op) == _reference_trace(mod, sigma, op, mod.period_basis), n
    mod = period_module(1, T1, 10)
    sigma = hecke_coset_desc(1, 97)
    assert trace_on_W(1, T1, 10, sigma, build_Tn(97)) == _reference_trace(mod, sigma, build_Tn(97), mod.period_basis)
    assert trace_coboundary(1, T1, 10, sigma, build_Tn_infty(97)) == 1 + 97**11


def test_scalar_blocks_under_a_zeta_twist_across_slabs():
    # weight 2 makes every block 1x1; a character of order 3 twists the
    # images by powers of zeta, over three slabs of the period basis
    chi = next(c for c in enumerate_characters(210) if c.label() == "210.2")
    assert (chi.order, euler_phi(chi.order)) == (3, 2)
    mod = period_module(210, chi, 0)
    assert len(mod.period_basis.pivots) == 96 == 3 * po.SLAB
    for n in (2, 3, 4, 6):
        sigma, op = hecke_coset_desc(210, n), build_Tn(n)
        assert trace_on_W(210, chi, 0, sigma, op) == _reference_trace(mod, sigma, op, mod.period_basis), n


def test_packed_slots_hold_their_bound():
    # a slot _slot_bits(B) wide holds every value of size at most B: values
    # packed at offsets bits * k read back through the bias of 2^(bits-1) in
    # every slot, and their packed int is 0 only when they all are
    rng = random.Random(3)
    for bound in (1, 2, 3, 7, 8, 255, 256, 2**64 - 1, 2**64, 3**40, 0):
        bits = po._slot_bits(bound)
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        for values in ([bound, -bound, 0], [-bound] * 4, [bound] * 4, [rng.randint(-bound, bound) for _ in range(9)]):
            packed = sum(x << (bits * k) for k, x in enumerate(values))
            bias = half * ((1 << (bits * len(values))) - 1) // mask
            assert [(((packed + bias) >> (bits * k)) & mask) - half for k in range(len(values))] == values, bound
            assert (packed == 0) == (not any(values)), bound
    # on the folded path, every value that _trace_on_space decodes or tests
    # for 0 lies within the bound its slots are cut for: each coefficient of
    # each image within _image_bound, and each residual at the pivots of
    # kernel_one_plus_S and each relation off them within alpha (L + Z g
    # spread).  Checked on the full images of each basis, at S-fixed points
    # and under twists, for T_n and for one of its matrices alone, whose
    # images leave the space
    for label, w, n in (("13.0", 2, 3), ("13.0", 4, 2), ("13.1", 1, 5), ("65.1", 1, 2), ("11.3", 3, 2)):
        N, chi = _label_char(label)
        mod = period_module(N, chi, w)
        space, fold = mod.period_basis, mod._fold
        assert space.kernel is fold
        basis = _basis(mod, space)
        sigma = hecke_coset_desc(N, n)
        for op in (build_Tn(n).coeffs, {sorted(build_Tn(n).coeffs)[0]: 1}):
            alpha = po._image_bound(mod, op, space)
            bound = alpha * (space.L + mod.zeta_bound * mod.g * space.spread)
            for image in _apply(mod, sigma, op, basis):
                assert max(abs(x) for plane in image for x in plane) <= alpha, (label, n)
                resid = [[space.L * x for x in plane] for plane in image]
                for basis_k, p, f in zip(basis, space.pivots, space.factors):
                    po._add_scaled(resid, mult_matrix(mod.order, [-plane[p] * f for plane in image]), basis_k)
                assert max(abs(plane[p]) for plane in resid for p in fold.pivots) <= bound, (label, n)
                for coords, pivots, tmat in fold.relations:
                    for plane, trow in zip(image, tmat):
                        for s, p in zip(coords, pivots):
                            assert abs(plane[s] - sum(z * ys[p] for z, ys in zip(trow, image))) <= bound, (label, n)


def test_proof_chain_correction():
    # trace on the period space minus trace on the whole module equals the
    # weight-zero trivial-character coset count
    for N in (1, 2, 3, 4):
        chiN = trivial_character(N)
        for n in range(1, 6):
            op = build_Tn(n)
            sigma = hecke_coset_desc(N, n)
            for w in (0, 2, 4):
                lhs = trace_on_W(N, chiN, w, sigma, op) - trace_on_V(N, chiN, w, sigma, op)
                want = sigma1_N(N, n) if w == 0 else 0
                assert lhs == want, (N, n, w)


# (level, character index, weight, eta factors (d, r)): the 14 eta products
# that span a one-dimensional S_k(Gamma_0(N), chi)
ETA_ANCHORS = (
    (11, 0, 2, ((1, 2), (11, 2))),
    (14, 0, 2, ((1, 1), (2, 1), (7, 1), (14, 1))),
    (15, 0, 2, ((1, 1), (3, 1), (5, 1), (15, 1))),
    (27, 0, 2, ((3, 2), (9, 2))),
    (32, 0, 2, ((4, 2), (8, 2))),
    (36, 0, 2, ((6, 4),)),
    (5, 0, 4, ((1, 4), (5, 4))),
    (6, 0, 4, ((1, 2), (2, 2), (3, 2), (6, 2))),
    (8, 0, 4, ((2, 4), (4, 4))),
    (3, 0, 6, ((1, 6), (3, 6))),
    (4, 0, 6, ((2, 12),)),
    (2, 0, 8, ((1, 8), (2, 8))),
    (7, 3, 3, ((1, 3), (7, 3))),
    (16, 4, 3, ((4, 6),)),
)


@pytest.mark.parametrize("N, ci, k, factors", ETA_ANCHORS, ids=[f"{N}.{ci}-k{k}" for N, ci, k, _ in ETA_ANCHORS])
def test_eta_product_anchors(N, ci, k, factors):
    # the eta product spans S_k(Gamma_0(N), chi), so tr T_n = a_n for every
    # n >= 1, including the n that share a prime with the level.  The period
    # route gives 2 tr T_n + (Eisenstein part) on W, the Eisenstein part read
    # off Ker(1 - T), so it shares nothing with the closed route
    chi = enumerate_characters(N)[ci]
    a = eta_product(factors, 150)
    if N == 11:
        assert a[:12] == [0, 1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1]
    for n in range(1, 150):
        assert trace_hecke_cusp(N, chi, k, n).value == a[n], n
    for n in range(1, 25):
        sigma = hecke_coset_desc(N, n)
        full = trace_on_W(N, chi, k - 2, sigma, build_Tn(n))
        eis = trace_coboundary(N, chi, k - 2, sigma, build_Tn_infty(n))
        assert full - eis == 2 * a[n], n


def test_translation_space_dimension():
    for N in (1, 2, 3, 4, 6, 8, 9, 12):
        for chi in enumerate_characters(N):
            w = 0 if chi.parity() == 1 else 1
            assert dim_translation_fixed(N, chi, w) == len(admissible_cusp_reps(N, chi))


def test_coboundary_examples():
    assert trace_coboundary(1, T1, 10, hecke_coset_desc(1, 2), build_Tn_infty(2)) == 2049
    assert trace_coboundary(1, T1, 0, hecke_coset_desc(1, 1), build_Tn_infty(1)) == 0
    # composed coset at level 6
    val = trace_coboundary(6, trivial_character(6), 2, atkin_coset_desc(6, 2, 1), build_Tn_infty(2))
    from trace_kit.cusp_terms import eisenstein_trace_atkin

    assert val == eisenstein_trace_atkin(6, 2, 4, 1)


def test_coboundary_on_a_translation_basis_with_inadmissible_orbits():
    # at level 16 some translation orbits are inadmissible and carry only the
    # zero vector, so the basis misses 7 and 2 of the 24 points, and rows
    # still sums the blocks of every point
    from trace_kit.cusp_terms import coboundary_trace, eisenstein_trace

    for ci, k, missed in ((1, 4, 7), (2, 6, 2)):
        chi = enumerate_characters(16)[ci]
        mod = period_module(16, chi, k - 2)
        used = {s // (k - 1) for vp in mod.translation_basis.planes for coords, _ in vp for s in coords}
        assert mod.npoints - len(used) == missed, chi.label()
        for n in range(1, 9):
            val = trace_coboundary(16, chi, k - 2, hecke_coset_desc(16, n), build_Tn_infty(n))
            assert val == eisenstein_trace(16, chi, k, n) == coboundary_trace(16, chi, k, n), (chi.label(), n)


def _package_imports(module):
    """trace_kit modules named by any import in the module's source, at top
    level or inside a function body."""
    tree = ast.parse(Path(trace_kit.__file__).with_name(module + ".py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["trace_kit" if node.level else None, node.module]))
            names += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("trace_kit.")} - {module}


def test_imports_stay_below_the_closed_formulas():
    # the two routes share arith, dirichlet and matrix_forms (where the coset
    # membership test lives) and nothing else: the closed formulas import
    # only those and each other, the period side and the universal operator
    # only those.
    shared = {"arith", "dirichlet", "matrix_forms"}
    closed = {"class_numbers", "local_counts", "cusp_terms", "trace_formulas"}
    allowed = {m: shared for m in shared}
    allowed.update({m: shared | closed for m in closed})
    allowed["period_oracle"] = allowed["hecke_operator"] = shared
    crossing = {m: _package_imports(m) - allowed[m] for m in allowed}
    assert not any(crossing.values()), crossing


def test_period_side_validation():
    chi4 = trivial_character(4)
    sigma = hecke_coset_desc(2, 3)
    with pytest.raises(ValueError, match="modulus"):
        trace_on_W(2, chi4, 2, sigma, build_Tn(3))
    with pytest.raises(ValueError, match="modulus"):
        trace_on_V(2, chi4, 2, sigma, build_Tn(3))
    with pytest.raises(ValueError, match="modulus"):
        trace_coboundary(2, chi4, 2, sigma, build_Tn_infty(3))
    with pytest.raises(ValueError, match="modulus"):
        dim_period_space(2, chi4, 2)
    with pytest.raises(ValueError, match="n >= 1"):
        hecke_coset_desc(1, 0)
    with pytest.raises(ValueError, match="n >= 1"):
        atkin_coset_desc(6, 2, 0)


@pytest.mark.parametrize("same_exponents_first", [False, True])
def test_wrong_modulus_rejected_in_either_call_order(same_exponents_first):
    # the odd characters mod 3 and mod 4 have the same exponent vector; the
    # answer for the wrong one must not depend on what was computed before
    period_module.cache_clear()
    chi3 = enumerate_characters(3)[1]
    chi4 = enumerate_characters(4)[1]
    assert chi3.exponents == chi4.exponents
    if same_exponents_first:
        assert dim_period_space(4, chi4, 1) == 2
    with pytest.raises(ValueError, match="modulus"):
        dim_period_space(4, chi3, 1)


def test_descriptor_must_fit_the_job():
    # level, character and determinant of the descriptor are all checked
    # before any block map is built
    chi2, chi4 = trivial_character(2), trivial_character(4)
    with pytest.raises(ValueError, match="level"):
        trace_on_V(2, chi2, 2, hecke_coset_desc(4, 3), build_Tn(3))
    with pytest.raises(ValueError, match="level"):
        trace_on_W(2, chi2, 2, hecke_coset_desc(4, 3), build_Tn(3))
    with pytest.raises(ValueError, match="level"):
        trace_on_W(4, chi4, 2, hecke_coset_desc(2, 3), build_Tn(3))
    with pytest.raises(ValueError, match="level"):
        trace_coboundary(4, chi4, 2, hecke_coset_desc(2, 3), build_Tn_infty(3))
    chi6 = enumerate_characters(6)[1]
    assert chi6.label() == "6.1" and not chi6.is_trivial()
    for fn, op in ((trace_on_W, build_Tn(2)), (trace_on_V, build_Tn(2)), (trace_coboundary, build_Tn_infty(2))):
        with pytest.raises(ValueError, match="trivial character"):
            fn(6, chi6, 1, atkin_coset_desc(6, 2, 1), op)
    with pytest.raises(ValueError, match="determinant"):
        trace_on_V(4, chi4, 2, hecke_coset_desc(4, 2), build_Tn(3))
