"""Exact linear algebra on induced polynomial modules over the projective line.

The degree-w module attached to (level N, character chi) has one polynomial
block of dimension w+1 per point of P^1(Z/N).  Unimodular matrices act by
coset permutation, a chi twist, and the weight -w substitution action; a
double coset acts through the same recipe with a membership scan deciding
which block (if any) each point feeds.

Representation: a vector over Q(zeta_m) is stored as phi(m) parallel
"planes" of rationals, one per power basis coefficient.  The weight action
has integer entries and acts on each plane independently; multiplying by a
field element mixes planes through its multiplication matrix (an integer one
for roots of unity).  This keeps the hot loops in plain rational arithmetic.
Eliminations stay linear over the cyclotomic field (entry = coefficient
tuple, or a plain rational when phi(m) = 1), so kernels and restricted
traces are genuinely Q(zeta)-spaces and the traces are exact cyclotomic
numbers, asserted to leave the subspace residual exactly zero.

Every field operation (product, inverse, powers of zeta, multiplication
matrices) comes from the coefficient-tuple kernel in dirichlet; this module
only lays the numbers out.  It imports nothing from the closed formulas:
the two routes share arith, that field arithmetic, matrix_forms and the
coset membership tests of local_counts, and nothing else.
"""

import math
import operator
import threading
from functools import lru_cache

from .arith import QQ, euler_phi, require_exact_divisor, sigma1_N, xgcd
from .dirichlet import CycloNum, cyclo_inverse, cyclo_mul, mult_matrix, zeta_power
from .local_counts import in_atkin_coset, in_hecke_coset
from .matrix_forms import S, T, U, mat_inv_unimodular, mat_mul

__all__ = [
    "coset_table",
    "CosetTable",
    "weight_action",
    "hecke_coset_desc",
    "atkin_coset_desc",
    "sigma_det",
    "sigma_contains",
    "PeriodModule",
    "period_module",
    "dim_period_space",
    "dim_translation_fixed",
    "trace_on_W",
    "trace_on_V",
    "trace_coboundary",
]


# -- the projective line and unimodular lifts ---------------------------------


class CosetTable:
    """Canonical points of P^1(Z/N) with unimodular lifts.

    points[i] is the canonical pair (c, d); lifts[i] is an integral
    determinant-1 matrix whose bottom row reduces to it.  lookup(g) returns
    (index, gamma) with g = gamma * lift and gamma in the level-N group.
    """

    def __init__(self, N):
        self.N = N
        units = [x for x in range(max(N, 1)) if math.gcd(x, N) == 1] or [0]
        canon = {}
        points = set()
        for c in range(N or 1):
            for d in range(N or 1):
                if N > 1 and math.gcd(math.gcd(c, d), N) != 1:
                    continue
                rep = min(((u * c) % N, (u * d) % N) for u in units) if N > 1 else (0, 0)
                canon[(c, d)] = rep
                points.add(rep)
        self.points = sorted(points)
        self._index = {p: i for i, p in enumerate(self.points)}
        self._canon = canon
        self.lifts = [self._lift(p) for p in self.points]

    def _lift(self, point):
        N = self.N
        c, d = point
        if N == 1:
            return (1, 0, 0, 1)
        if c % N == 0:
            c1, d1 = 0, 1
        else:
            c1, d1 = c, d
            while math.gcd(c1, d1) != 1:
                d1 += N
        g, a, y = xgcd(d1, c1)
        assert g == 1
        return (a, -y, c1, d1)

    def index_of(self, c, d):
        if self.N == 1:
            return 0
        return self._index[self._canon[(c % self.N, d % self.N)]]

    def lookup(self, g):
        """(point index, connecting gamma) for a determinant-1 matrix g."""
        i = self.index_of(g[2], g[3])
        gamma = mat_mul(g, mat_inv_unimodular(self.lifts[i]))
        if gamma[2] % self.N:
            raise RuntimeError("coset lookup produced a bad connector")
        return i, gamma

    def __len__(self):
        return len(self.points)


@lru_cache(maxsize=None)
def coset_table(N):
    return CosetTable(N)


# -- weight actions ------------------------------------------------------------


@lru_cache(maxsize=200000)
def weight_action(m, w):
    """Matrix of P -> (cX+d)^w P((aX+b)/(cX+d)) on the monomial basis.

    Column i holds the coefficients of (aX+b)^i (cX+d)^(w-i); all integer.
    """
    a, b, c, d = m
    top = [(1,)]
    bot = [(1,)]
    for _ in range(w):
        top.append(_poly_shift(top[-1], b, a))
        bot.append(_poly_shift(bot[-1], d, c))
    cols = [_poly_mul_int(top[i], bot[w - i], w + 1) for i in range(w + 1)]
    return tuple(tuple(cols[j][r] for j in range(w + 1)) for r in range(w + 1))


def _poly_shift(p, c0, c1):
    out = [0] * (len(p) + 1)
    for i, v in enumerate(p):
        out[i] += v * c0
        out[i + 1] += v * c1
    return tuple(out)


def _poly_mul_int(p, q, size):
    out = [0] * size
    for i, v in enumerate(p):
        if v:
            for j, u in enumerate(q):
                if u and i + j < size:
                    out[i + j] += v * u
    return out


@lru_cache(maxsize=200000)
def _weight_rows_nz(m, w):
    """weight_action rows with zero entries stripped: ((idx, coef), ...)."""
    wm = weight_action(m, w)
    return tuple(
        tuple((idx, coef) for idx, coef in enumerate(row) if coef) for row in wm
    )


# -- double coset descriptors ---------------------------------------------------


def hecke_coset_desc(N, n):
    """Descriptor for the determinant-n Hecke double coset at level N."""
    return ("hecke", N, n)


def atkin_coset_desc(N, ell, n):
    """Descriptor for the composed Hecke/Atkin-Lehner coset (det = ell*n)."""
    require_exact_divisor(N, ell)
    return ("atkin", N, ell, n)


def sigma_det(sigma):
    if sigma[0] == "hecke":
        return sigma[2]
    return sigma[2] * sigma[3]


def sigma_contains(sigma, m):
    if sigma[0] == "hecke":
        return in_hecke_coset(m, sigma[1], sigma[2])
    return in_atkin_coset(m, sigma[1], sigma[2], sigma[3])


_sigma_block_cache: dict = {}
_cache_lock = threading.Lock()


def sigma_block_map(sigma, m):
    """Per point j: None, or (source point i, chi argument mod N).

    Encodes the double-coset action: the value block at point j of the image
    is the twist by chi(argument) times the weight action applied to the
    block at point i of the input.
    """
    key = (sigma, m)
    cached = _sigma_block_cache.get(key)
    if cached is not None:
        return cached
    N = sigma[1]
    table = coset_table(N)
    out = []
    for Aj in table.lifts:
        y = mat_mul(m, mat_inv_unimodular(Aj))
        entry = None
        for i, Ai in enumerate(table.lifts):
            cand = mat_mul(Ai, y)
            if sigma_contains(sigma, cand):
                if N == 1:
                    arg = 0
                elif sigma[0] == "hecke":
                    arg = cand[0] % N
                else:
                    arg = 1
                entry = (i, arg)
                break
        out.append(entry)
    out = tuple(out)
    with _cache_lock:
        _sigma_block_cache[key] = out
    return out


@lru_cache(maxsize=None)
def _gamma_point_map(N, g):
    """For each point j: (target point, d-entry of the connector mod N)."""
    table = coset_table(N)
    ginv = mat_inv_unimodular(g)
    out = []
    for Aj in table.lifts:
        i, gamma = table.lookup(mat_mul(Aj, ginv))
        out.append((i, gamma[3] % N if N > 1 else 0))
    return tuple(out)


# -- the module ---------------------------------------------------------------


class PeriodModule:
    """Induced polynomial module for (N, chi, w); requires chi(-1) = (-1)^w.

    Vectors are (plane-count x dim) nested lists of exact rationals; the
    plane count is phi(order(chi)) and collapses to 1 for rational (trivial
    or quadratic) characters.
    """

    def __init__(self, N, chi, w):
        if chi.parity() != (1 if w % 2 == 0 else -1):
            raise ValueError("character parity must match the weight")
        self.N = N
        self.chi = chi
        self.w = w
        self.table = coset_table(N)
        self.npoints = len(self.table)
        self.dim = self.npoints * (w + 1)
        self.order = chi.order
        self.g = euler_phi(self.order)
        # chi exponent per residue (None on non-units)
        self._chi_exp = [chi.value_exponent(x) for x in range(max(N, 1))] if N > 1 else [0]
        # integer plane-mixing matrix of zeta^e, per exponent e
        self._zeta = [mult_matrix(self.order, zeta_power(self.order, e)) for e in range(self.order)]

    # -- plane vectors -------------------------------------------------------

    def zero_vec(self):
        # integer zeros: vectors stay in plain ints whenever the inputs are
        # integral, which is what the hot paths arrange
        return [[0] * self.dim for _ in range(self.g)]

    def _block_apply(self, rows_nz, vec, i):
        """Integer weight action (nonzero-structured rows) on block i."""
        w1 = self.w + 1
        lo = i * w1
        out = []
        for c in range(self.g):
            src = vec[c][lo : lo + w1]
            plane = []
            for row in rows_nz:
                acc = 0
                for cidx, coef in row:
                    s = src[cidx]
                    if s:
                        acc += coef * s
                plane.append(acc)
            out.append(plane)
        return out

    def _chi_exponent(self, arg):
        e = self._chi_exp[arg % self.N if self.N > 1 else 0]
        if e is None:
            raise RuntimeError("character argument is not a unit")
        # exponent is in units of zeta_order
        return e

    def apply_gamma(self, g, vec):
        """vec |-> vec | g for unimodular g."""
        w1 = self.w + 1
        wm = _weight_rows_nz(g, self.w)
        pmap = _gamma_point_map(self.N, g)
        out = self.zero_vec()
        for j in range(self.npoints):
            i, dg = pmap[j]
            tw = [[0] * w1 for _ in range(self.g)]
            _add_scaled(tw, self._zeta[self._chi_exponent(dg)], self._block_apply(wm, vec, i))
            for dst, plane in zip(out, tw):
                dst[j * w1 : (j + 1) * w1] = plane
        return out

    def apply_operator(self, sigma, op, vectors):
        """Apply sum(q_M * |_Sigma M) to a list of plane vectors.

        Contributions accumulate untwisted in buckets keyed by the chi twist
        exponent; each bucket is mixed through the integer zeta matrix once
        at the end.  With integer-scaled operators and basis vectors (what
        the cached spaces provide) the inner loops are pure int arithmetic.
        """
        w1 = self.w + 1
        nv = len(vectors)
        buckets = {}
        for m, qq in op.items():
            wm = _weight_rows_nz(m, self.w)
            bmap = sigma_block_map(sigma, m)
            sub_cache = {}
            for j in range(self.npoints):
                ent = bmap[j]
                if ent is None:
                    continue
                i, arg = ent
                exp = self._chi_exponent(arg)
                bucket = buckets.get(exp)
                if bucket is None:
                    bucket = buckets[exp] = [self.zero_vec() for _ in range(nv)]
                lo = j * w1
                for vi in range(nv):
                    ck = (i, vi)
                    sub = sub_cache.get(ck)
                    if sub is None:
                        sub = self._block_apply(wm, vectors[vi], i)
                        sub_cache[ck] = sub
                    dstv = bucket[vi]
                    for c in range(self.g):
                        dst = dstv[c]
                        srcp = sub[c]
                        for r in range(w1):
                            v = srcp[r]
                            if v:
                                dst[lo + r] += qq * v
        outs = [self.zero_vec() for _ in range(nv)]
        for exp, bucket in buckets.items():
            for out, src in zip(outs, bucket):
                _add_scaled(out, self._zeta[exp], src)
        return outs

    def apply_sigma(self, sigma, m, vec):
        return self.apply_operator(sigma, {m: QQ(1)}, [vec])[0]

    # -- structured kernels ------------------------------------------------------

    def kernel_one_plus_S(self):
        """Basis of Ker(1 + S): free blocks on point pairs, local kernels at
        fixed points.  Entries rational on the free side by construction."""
        w1 = self.w + 1
        pmap = _gamma_point_map(self.N, S)
        wm = weight_action(S, self.w)
        one = zeta_power(self.order, 0)
        basis = []
        seen = set()
        for j in range(self.npoints):
            if j in seen:
                continue
            i, dg = pmap[j]
            z = zeta_power(self.order, self._chi_exponent(dg))
            if i == j:
                # local condition (I + zeta^e W_S) x = 0 over the field
                rows = [
                    _entries([[wm[r][c] * x + (r == c) * o for c in range(w1)] for x, o in zip(z, one)])
                    for r in range(w1)
                ]
                for sol in _nullspace_entries(rows, w1, self.order):
                    vec = self.zero_vec()
                    for c, plane in enumerate(_planes(sol, self.g)):
                        vec[c][j * w1 : (j + 1) * w1] = plane
                    basis.append(vec)
                seen.add(j)
            else:
                # free block at i, determined block at j = -zeta^e W_S block_i
                for k in range(w1):
                    vec = self.zero_vec()
                    vec[0][i * w1 + k] = 1
                    for c, x in enumerate(z):
                        for r in range(w1):
                            vec[c][j * w1 + r] = -x * wm[r][k]
                    basis.append(vec)
                seen.add(i)
                seen.add(j)
        return basis

    def period_space(self):
        """Basis of Ker(1+S) intersect Ker(1+U+U^2), over the value field."""
        bs = self.kernel_one_plus_S()
        if not bs:
            return []
        images = []
        for v in bs:
            vu = self.apply_gamma(U, v)
            vuu = self.apply_gamma(U, vu)
            img = [[a + b + c for a, b, c in zip(*planes)] for planes in zip(v, vu, vuu)]
            images.append(_entries(img))
        combos = _nullspace_entries(list(zip(*images)), len(bs), self.order)
        out = []
        for combo in combos:
            acc = self.zero_vec()
            for coef, bvec in zip(zip(*_planes(combo, self.g)), bs):
                if any(coef):
                    _add_scaled(acc, mult_matrix(self.order, coef), bvec)
            out.append(acc)
        return out

    def translation_fixed_space(self):
        """Basis of Ker(1 - T): one vector per admissible translation orbit."""
        w1 = self.w + 1
        pmap = _gamma_point_map(self.N, T)
        basis = []
        done = set()
        for j0 in range(self.npoints):
            if j0 in done:
                continue
            cycle = [j0]
            exps = []
            cur = j0
            while True:
                i, dg = pmap[cur]
                exps.append(self._chi_exponent(dg))
                if i == j0:
                    break
                cycle.append(i)
                cur = i
            done.update(cycle)
            if sum(exps) % self.order:
                continue  # inadmissible orbit: only the zero invariant vector
            slots = [(j0, 0)]
            run = 0
            for k in range(len(cycle) - 1, 0, -1):
                run = (run + exps[k]) % self.order
                slots.append((cycle[k], run))
            vec = self.zero_vec()
            for point, e in slots:
                for c, x in enumerate(zeta_power(self.order, e)):
                    vec[c][point * w1] = x
            basis.append(vec)
        return basis


# -- eliminations over field entries ----------------------------------------------
#
# An elimination entry of Q(zeta_m) is a plain QQ when phi(m) = 1 and a
# coefficient tuple otherwise; tuples are multiplied and inverted by the
# dirichlet kernel.  Plane vectors are the same numbers stored plane-major.


def _entries(planes):
    """Elimination entries of a plane vector."""
    if len(planes) == 1:
        return list(planes[0])
    return list(zip(*planes))


def _planes(entries, g):
    """Plane view (g lists) of a list of elimination entries."""
    if g == 1:
        return [list(entries)]
    return [[e[c] for e in entries] for c in range(g)]


def _zero_one(g):
    if g == 1:
        return QQ(0), QQ(1)
    return (QQ(0),) * g, (QQ(1),) + (QQ(0),) * (g - 1)


def _add_scaled(dst, qmat, src):
    """dst += q * src on plane vectors, q given by its multiplication matrix."""
    for dplane, qrow in zip(dst, qmat):
        for q, splane in zip(qrow, src):
            if q:
                for idx, s in enumerate(splane):
                    if s:
                        dplane[idx] += q * s


def _rref_entries(rows, ncols, m, pivot_limit=None):
    """Reduce rows of Q(zeta_m) entries to reduced echelon form in place;
    returns the pivot columns."""
    scalar = euler_phi(m) == 1
    nonzero = bool if scalar else any
    limit = ncols if pivot_limit is None else pivot_limit
    pivots = []
    r = 0
    for col in range(limit):
        piv = None
        for rr in range(r, len(rows)):
            if nonzero(rows[rr][col]):
                piv = rr
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        if scalar:
            if prow[col] != 1:
                inv = 1 / QQ(prow[col])
                prow = rows[r] = [x * inv if x else x for x in prow]
        else:
            inv = cyclo_inverse(m, prow[col])
            prow = rows[r] = [cyclo_mul(m, inv, x) if any(x) else x for x in prow]
        for rr, row in enumerate(rows):
            f = row[col]
            if rr == r or not nonzero(f):
                continue
            if scalar:
                rows[rr] = [x - f * y if y else x for x, y in zip(row, prow)]
            else:
                rows[rr] = [
                    tuple(map(operator.sub, x, cyclo_mul(m, f, y))) if any(y) else x
                    for x, y in zip(row, prow)
                ]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def _nullspace_entries(rows, ncols, m):
    g = euler_phi(m)
    nonzero = bool if g == 1 else any
    work = [list(r) for r in rows if any(map(nonzero, r))]
    pivots = _rref_entries(work, ncols, m)
    pivset = set(pivots)
    zero, one = _zero_one(g)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for ridx, pc in enumerate(pivots):
            v = work[ridx][fc]
            if nonzero(v):
                vec[pc] = -v if g == 1 else tuple(-x for x in v)
        basis.append(vec)
    return basis


class _SpanData:
    """Echelonized span of a basis with the transform back to it, both kept
    as plane vectors."""

    __slots__ = ("pivots", "echelon", "tmat", "mod")

    def __init__(self, entry_rows, dim, mod):
        zero, one = _zero_one(mod.g)
        r = len(entry_rows)
        aug = []
        for i, v in enumerate(entry_rows):
            row = list(v) + [zero] * r
            row[dim + i] = one
            aug.append(row)
        pivots = _rref_entries(aug, dim + r, mod.order, pivot_limit=dim)
        if len(pivots) != r:
            raise RuntimeError("basis vectors are dependent")
        self.pivots = pivots
        self.echelon = [_planes(row[:dim], mod.g) for row in aug]
        self.tmat = [_planes(row[dim:], mod.g) for row in aug]
        self.mod = mod


def _restricted_trace(span, image_planes):
    """Trace (a coefficient tuple) of the restriction given plane-vector
    images; asserts the images lie exactly in the span (zero residual) before
    trusting anything."""
    m = span.mod.order
    total = (QQ(0),) * span.mod.g
    for i, v in enumerate(image_planes):
        resid = [list(plane) for plane in v]
        for p, eplanes, tplanes in zip(span.pivots, span.echelon, span.tmat):
            ck = tuple(plane[p] for plane in v)
            if any(ck):
                _add_scaled(resid, mult_matrix(m, tuple(-x for x in ck)), eplanes)
                tki = tuple(plane[i] for plane in tplanes)
                total = tuple(map(operator.add, total, cyclo_mul(m, ck, tki)))
        if any(any(plane) for plane in resid):
            raise RuntimeError("operator does not preserve the subspace")
    return total


# -- cached module assembly ---------------------------------------------------------


_module_cache: dict = {}
_pspace_cache: dict = {}
_dspace_cache: dict = {}


def _scale_planes_to_int(planes):
    """Rescale a plane vector to integer entries (span-preserving)."""
    den = 1
    for plane in planes:
        for x in plane:
            d = getattr(x, "denominator", 1)
            if d != 1:
                den = den * d // math.gcd(den, d)
    out = []
    for plane in planes:
        out.append([int(x * den) if den != 1 else int(x) for x in plane])
    return out


def _int_scaled_op(coeffs):
    """(integer coefficient dict, denominator) for a group-ring element."""
    den = 1
    for q in coeffs.values():
        d = getattr(q, "denominator", 1)
        if d != 1:
            den = den * d // math.gcd(den, d)
    return {m: int(q * den) for m, q in coeffs.items()}, den


def period_module(N, chi, w):
    key = (N, chi.exponents, w)
    mod = _module_cache.get(key)
    if mod is None:
        mod = PeriodModule(N, chi, w)
        with _cache_lock:
            _module_cache[key] = mod
    return mod


def _cached_space(cache, mod, build):
    """(integer-scaled basis, its _SpanData or None) of a subspace, memoized."""
    key = (mod.N, mod.chi.exponents, mod.w)
    got = cache.get(key)
    if got is None:
        basis = [_scale_planes_to_int(v) for v in build()]
        span = _SpanData([_entries(v) for v in basis], mod.dim, mod) if basis else None
        got = (basis, span)
        with _cache_lock:
            cache[key] = got
    return got


def _cached_period_space(mod):
    return _cached_space(_pspace_cache, mod, mod.period_space)


def _cached_translation_space(mod):
    return _cached_space(_dspace_cache, mod, mod.translation_fixed_space)


def dim_period_space(N, chi, w):
    mod = period_module(N, chi, w)
    return len(_cached_period_space(mod)[0])


def dim_translation_fixed(N, chi, w):
    mod = period_module(N, chi, w)
    return len(_cached_translation_space(mod)[0])


def _trace_on_space(mod, sigma, op, space):
    """Exact trace of op acting through sigma on a cached subspace."""
    basis, span = space
    if not basis:
        return CycloNum.zero(1)
    int_op, den = _int_scaled_op(op.coeffs)
    val = _restricted_trace(span, mod.apply_operator(sigma, int_op, basis))
    return CycloNum(mod.order if mod.g > 1 else 1, (x / den for x in val))


def trace_on_W(N, chi, w, sigma, op):
    """Trace of the group-ring element op acting through sigma on the period
    space; raises if the space is not preserved exactly."""
    if sigma_det(sigma) != op.det:
        raise ValueError("operator determinant does not match the double coset")
    mod = period_module(N, chi, w)
    return _trace_on_space(mod, sigma, op, _cached_period_space(mod))


def trace_on_V(N, chi, w, sigma, op):
    """Trace of op on the full module (blockwise, no elimination)."""
    mod = period_module(N, chi, w)
    total = CycloNum.zero(chi.order)
    for m, q in op.coeffs.items():
        bmap = sigma_block_map(sigma, m)
        wm = weight_action(m, w)
        ptrace = sum(wm[r][r] for r in range(w + 1))
        if not ptrace:
            continue
        for j in range(mod.npoints):
            ent = bmap[j]
            if ent is not None and ent[0] == j:
                zeta = CycloNum.root_of_unity(chi.order, mod._chi_exponent(ent[1]))
                total = total + zeta * (QQ(q) * ptrace)
    return total


def trace_coboundary(N, chi, w, sigma, n_infinity_op):
    """Trace of the infinity-coset operator on Ker(1-T), with the weight-2
    trivial-character correction; equals the Eisenstein trace."""
    mod = period_module(N, chi, w)
    val = _trace_on_space(mod, sigma, n_infinity_op, _cached_translation_space(mod))
    if w == 0 and chi.is_trivial():
        n = sigma[2] if sigma[0] == "hecke" else sigma[3]
        val = val - sigma1_N(N, n)
    return val
