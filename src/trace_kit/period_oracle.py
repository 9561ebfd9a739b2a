"""Exact linear algebra on induced polynomial modules over the projective line.

The degree-w module attached to (level N, character chi) has one polynomial
block of dimension w+1 per point of P^1(Z/N), the product of the local lines
P^1(Z/p^e), so that a point is indexed one prime at a time, as Manin symbols
are normalised.  A double coset acts by sending each point's block, through
the weight -w substitution action and a chi twist, to the one point (if any)
it comes from; that source point is read off the matrix by a congruence and
a P^1(Z/N) index lookup.  Unimodular matrices act as the determinant-1
coset, so there is one action routine for both.  The points fixed by a
matrix give its direct conjugacy-class weight, which trace_on_V sums into
the trace on the whole module.

An operator sum(q_M M) is applied one way only, as gathered rows
(PeriodModule.rows): q_M times the weight action summed block by block per
(source point, target point, chi twist exponent), then gathered per
exponent and target point: the source coordinates of the blocks landing on
the point, and each of its w+1 rows the matching rows of those blocks as
they stand, zeros included.  The module acts on the right, so the action
of M g is that of M followed by that of g: the matrices of an operator fall
into classes joined by M -> +-M g, g in S, U, U^2 (sigma_1(n) classes for
T_n), and only the first of a class is walked by sigma_block_map.  The
others are read off it through the unimodular maps of S, U and U^2, each
walked once per module.  For an even character order m, zeta^(m/2) = -1
folds every twist exponent below m/2.  A restricted trace reads each source
once per target point and plane and takes one dot product per row; the
period space's elimination keeps the rows of one point per U-orbit only,
as every image of 1+U+U^2 is U-invariant (_period_system).  S acts as a
signed permutation, so Ker(1+S) is written down (kernel_one_plus_S).  The
weight action is built column by column, each the last times (aX+b) over
(cX+d), an exact division checked term by term (weight_action), so a
matrix of weight w costs O(w^2) integer operations.

Representation: a vector over Q(zeta_m) is sparse, a dict coordinate ->
integer coefficient tuple of length phi(m) on the power basis, nonzero
tuples only.  The Ker(1+S) vectors, the elimination's rows and the period
space's vectors all take this one form.  Every period polynomial satisfies
P|(1+S) = 0, and each written-down Ker(1+S) vector is the field's 1 at its
own pivot and 0 at the others', so a vector of Ker(1+S) is fixed by its
values at those pivots: the pivot point of each S-pair and the upper half
of each point S fixes, about half the coordinates.  The period space is
kept in these Ker(1+S) coordinates, and the rows that act on it are folded
onto them (PeriodModule.rows with fold, laid out once per module by
_fold); the elimination's unknowns are the same values.  The translation
space Ker(1-T) does not lie in Ker(1+S) and keeps full coordinates.  The
weight action has integer entries and acts on each coefficient alone; a
field element mixes them through its integer multiplication matrix, so the
hot loops stay in ints.  The one elimination, of Ker(1+U+U^2) on Ker(1+S),
is sparse and fraction-free over Z[zeta_m]: a pivot row is multiplied by
the other Galois conjugates of its lead, which makes the lead a rational
integer, and other rows are cleared by integer cross-multiplication.

Every cached basis (a Subspace) comes out reduced: vector k is d_k times
the field's 1 at its own pivot coordinate p_k and 0 at the others' pivots,
checked on whole tuples as it is laid out per plane for the trace.
A restricted trace therefore reads each image's coordinates v[p_k] / d_k
straight off the pivots, with no further elimination, and certifies them
first: every image must lie in the span, or the operator does not preserve
the subspace.  On full coordinates that is L v - sum_k v[p_k] (L / d_k)
basis_k = 0 exactly in Z, L = lcm(d_k).  On Ker(1+S) coordinates it is
that residual at the Ker(1+S) pivots, plus the Ker(1+S) relations at
every other coordinate: there v must be -zeta^e (-1)^k times v at its
pivot, and 0 at a dropped middle coordinate.  It works on slabs of SLAB
basis vectors packed into one int per coordinate and plane, each vector a
signed slot (Kronecker substitution), so one big-int multiply-add per
operator entry and plane serves the whole slab.  The slot width comes from
an a-priori bound on every image coordinate, every residual and every
relation, so each packed int is 0 exactly when all its slots are and each
slot reads back exactly (_trace_on_space).

Every field operation (product, Galois conjugates, powers of zeta,
multiplication matrices) comes from the coefficient-tuple kernel in dirichlet; this module
only lays the numbers out.  It imports nothing from the closed formulas:
the two routes share arith, that field arithmetic and matrix_forms, which
holds the coset membership test, and nothing else.
"""

import math
from collections import defaultdict, namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from operator import add, mul

from .arith import QQ, euler_phi, factorize, sigma1_N, validate_query
from .dirichlet import CycloNum, cyclo_conjugates, cyclo_mul, mult_matrix, zeta_power
from .matrix_forms import (
    IDENT,
    S,
    T,
    U,
    complete_row,
    in_atkin_coset,
    mat_det,
    mat_mul,
    mat_neg,
    sigma_det,
    sigma_twist,
)

__all__ = [
    "coset_table",
    "CosetTable",
    "weight_action",
    "hecke_coset_desc",
    "atkin_coset_desc",
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
    """Points of P^1(Z/N) with unimodular lifts.

    P^1(Z/N) is the product of the P^1(Z/q) over the prime powers q = p^e
    exactly dividing N.  A local point is (1 : x) with x mod q, local index
    x, or (p*y : 1) with y mod q/p, local index q + y.  index_of(c, d) reads
    each local point of a pair with gcd(c, d, N) = 1 by one modular inverse,
    read from a table of the inverses mod q, and joins the local indices in
    mixed radix, the first prime least significant.  points[i] is the CRT of its local pairs; lifts[i] is an
    integral determinant-1 matrix whose bottom row reduces to it.
    """

    def __init__(self, N):
        self.N = N
        self._local = []  # (q, p, place value of the local index, inverses mod q)
        points = [(0, 0)]
        for p, e in factorize(N):
            q = p**e
            idem = N // q * pow(N // q, -1, q)  # 1 mod q, 0 mod N/q
            inv = [pow(x, -1, q) if x % p else None for x in range(q)]
            self._local.append((q, p, len(points), inv))
            local = [(1, x) for x in range(q)] + [(p * y, 1) for y in range(q // p)]
            points = [((c + lc * idem) % N, (d + ld * idem) % N) for lc, ld in local for c, d in points]
        self.points = points
        self.lifts = [self._lift(pt) for pt in points]

    def _lift(self, point):
        N = self.N
        c, d = point
        if c % N == 0:
            c1, d1 = 0, 1
        else:
            c1, d1 = c, d
            while math.gcd(c1, d1) != 1:
                d1 += N
        return complete_row(c1, d1)

    def index_of(self, c, d):
        i = 0
        for q, p, place, inv in self._local:
            cq = c % q
            if cq % p:
                k = d * inv[cq] % q
            else:
                k = q + cq * inv[d % q] % q // p
            i += k * place
        return i

    def __len__(self):
        return len(self.points)


@lru_cache(maxsize=64)
def coset_table(N):
    return CosetTable(N)


# -- weight actions ------------------------------------------------------------


def weight_action(m, w):
    """Matrix of P -> (cX+d)^w P((aX+b)/(cX+d)) on the monomial basis.

    Column i holds the coefficients of (aX+b)^i (cX+d)^(w-i), all integer.
    Column 0 is the binomial row of (cX+d)^w, and (cX+d) col_{i+1} = (aX+b)
    col_i gives each next column in O(w) steps, coefficient by coefficient:
    col_{i+1}[r] = (a col_i[r-1] + b col_i[r] - c col_{i+1}[r-1]) / d.  When
    d = 0 the walk runs the other way, from (aX+b)^w, dividing by b; when b
    = d = 0 too, every column is a^i c^(w-i) X^w.  Each division is exact,
    which is checked.

    Not memoized: one entry at high weight is a (w+1)^2 matrix of big ints,
    and an operator's matrices rarely repeat across its calls.
    """
    a, b, c, d = m
    if not (b or d):
        return (*repeat((0,) * (w + 1), w), tuple(a**i * c ** (w - i) for i in range(w + 1)))
    # multiply by (pX+q) and divide by (uX+v), v != 0, from (uX+v)^w
    p, q, u, v = (a, b, c, d) if d else (c, d, a, b)
    col = [1] * (w + 1)
    for r in range(w):  # col[r] = C(w, r) u^r v^(w-r), built from both ends
        col[r + 1] = col[r] * (w - r) // (r + 1)
    upow = vpow = 1
    for r in range(w + 1):
        col[r] *= upow
        col[w - r] *= vpow
        upow *= u
        vpow *= v
    cols = [col]
    for _ in range(w):
        nxt = []
        old = new = 0  # col[r-1] and nxt[r-1]
        for x in col:
            new, rem = divmod(p * old + q * x - u * new, v)
            if rem:
                raise ArithmeticError("inexact division in the weight action")
            nxt.append(new)
            old = x
        cols.append(nxt)
        col = nxt
    return tuple(zip(*(cols if d else reversed(cols))))


# -- double coset descriptors ---------------------------------------------------
#
# A descriptor (N, ell, n) names the level-N double coset of determinant
# ell*n cut out by matrix_forms.in_atkin_coset.  ell = 1 is the Hecke coset,
# and (N, 1, 1) is the level-N group itself, whose action is the unimodular
# one.


def hecke_coset_desc(N, n):
    """Descriptor for the determinant-n Hecke double coset at level N."""
    validate_query(N, n=n)
    return (N, 1, n)


def atkin_coset_desc(N, ell, n):
    """Descriptor for the composed Hecke/Atkin-Lehner coset (det = ell*n)."""
    validate_query(N, n=n, ell=ell)
    return (N, ell, n)


def sigma_block_map(sigma, m):
    """Per point j: None, or (source point i, chi argument mod N).

    Encodes the double-coset action: the value block at point j of the image
    is the twist by chi(argument) times the weight action applied to the
    block at point i of the input, where A_i m A_j^-1 is in the coset (A the
    lifts).  With y = m A_j^-1 and N' = N/ell, the coset's conditions fix
    the bottom row (c : d) of A_i: c = -y_c, d = y_a mod N' and c = -y_d,
    d = y_b mod ell, joined by CRT.  There is no source when y_a or y_c is
    nonzero mod ell, (y_a, y_c) is not primitive mod N' or (y_b, y_d) is not
    primitive mod ell.  Each source found is certified by in_atkin_coset.

    Not memoized: a map holds one slot per point of P^1(Z/N), and a range of
    degrees almost never asks for the same (sigma, m) twice.
    """
    N, ell, _ = sigma
    table = coset_table(N)
    if mat_det(m) != sigma_det(sigma):
        return (None,) * len(table)
    Np = N // ell
    # CRT idempotents: e = 1 mod ell, 0 mod N'; f = 1 - e
    e = Np * pow(Np, -1, ell)
    f = 1 - e
    a, b, c, d = m
    lifts, index_of = table.lifts, table.index_of
    out = []
    for p, q, r, s in lifts:
        # y = m A_j^-1, A_j^-1 = (s, -q; -r, p)
        ya, yb, yc, yd = a * s - b * r, b * p - a * q, c * s - d * r, d * p - c * q
        if ya % ell or yc % ell or math.gcd(ya, yc, Np) != 1 or math.gcd(yb, yd, ell) != 1:
            out.append(None)
            continue
        i = index_of(-yc * f - yd * e, ya * f + yb * e)
        p, q, r, s = lifts[i]  # A_i
        member = (p * ya + q * yc, p * yb + q * yd, r * ya + s * yc, r * yb + s * yd)
        if not in_atkin_coset(member, *sigma):
            raise RuntimeError("coset lookup produced a non-member")
        out.append((i, sigma_twist(sigma, member) % N))
    return tuple(out)


def _fixed_point_args(sigma, m):
    """Character arguments at the fixed points of the action of m through
    sigma: the points j whose block comes from j itself, that is
    A_j m A_j^-1 in the coset."""
    return [ent[1] for j, ent in enumerate(sigma_block_map(sigma, m)) if ent is not None and ent[0] == j]


# the single steps M -> M g by which PeriodModule.rows derives one matrix of an
# operator from another
_STEPS = (S, U, mat_mul(U, U))


def _coset_classes(op):
    """The matrices of op in classes, each a list of (M, P, parent, g): the
    first has P = M and parent None; every other has P = P' g = +-M, P' the
    P of the member at position parent and g in _STEPS.  A class is every
    matrix of op reached from its first by such steps."""
    seen = set()
    classes = []
    for m in op:
        if m in seen:
            continue
        seen.add(m)
        cls = [(m, m, None, None)]
        for k, (_, p, _, _) in enumerate(cls):  # visits the members appended below too
            for g in _STEPS:
                pg = mat_mul(p, g)
                for mg in (pg, mat_neg(pg)):
                    if mg in op and mg not in seen:
                        seen.add(mg)
                        cls.append((mg, pg, k, g))
        classes.append(cls)
    return classes


def _landing(m, d, e, form):
    """(point d, exponent, slot) at which PeriodModule.rows sums a block in
    form `form` (_fold) that arrives at exponent e: for an even order m,
    zeta^(m/2) = -1 takes e + m/2 to e and the block negated, slot 2 form +
    1 against 2 form."""
    e %= m
    if m % 2 == 0 and e >= m // 2:
        return d, e - m // 2, 2 * form + 1
    return d, e, 2 * form


def _block(made, slot, forms):
    """A member's block in the form and sign of slot (_landing), made from
    its plain block made[0] and stored in made[slot]; form f > 0 reads
    forms[f] = (entry index, sign) off the plain block."""
    if slot % 2:
        f = [-x for x in made[slot - 1] or _block(made, slot - 1, forms)]
    else:
        rev, signs = forms[slot // 2]
        f = list(map(mul, signs, map(made[0].__getitem__, rev)))
    made[slot] = f
    return f


# a module's Ker(1+S) layout (PeriodModule._fold)
_Fold = namedtuple("_Fold", "pivots land lo forms relations dropped")


class PeriodModule:
    """Induced polynomial module for (N, chi, w); requires chi(-1) = (-1)^w.

    Vectors are sparse: dicts coordinate -> integer coefficient tuple of
    length g = phi(order(chi)), nonzero tuples only; g collapses to 1 for
    rational (trivial or quadratic) characters.
    """

    def __init__(self, N, chi, w):
        validate_query(N, chi, w + 2)
        if chi.parity() != (1 if w % 2 == 0 else -1):
            raise ValueError("character parity must match the weight")
        self.N = N
        self.chi = chi
        self.w = w
        self.table = coset_table(N)
        self.unimodular = hecke_coset_desc(N, 1)
        self.npoints = len(self.table)
        self.dim = self.npoints * (w + 1)
        self.order = chi.order
        self.g = euler_phi(self.order)
        # integer plane-mixing matrix of zeta^e, per exponent e
        self._zeta = [mult_matrix(self.order, zeta_power(self.order, e)) for e in range(self.order)]
        # the largest coefficient of a power of zeta, so of any entry of _zeta
        self.zeta_bound = max(abs(x) for mat in self._zeta for row in mat for x in row)
        self._unimodular_maps = {}  # g -> its walked unimodular map (_unimodular_map)

    def _unimodular_map(self, g):
        """(sources, exponents) of the unimodular action of g, walked once
        per module (g is S, U, U^2 or T): the block at point j of the image
        is zeta^exponents[j] W(g) applied to the block at point sources[j].
        g is invertible, so sources is a permutation."""
        walked = self._unimodular_maps.get(g)
        if walked is None:
            sources, args = zip(*sigma_block_map(self.unimodular, g))
            table = self.chi.table()  # exponents in units of zeta_order
            exps = tuple(table[arg % self.N] for arg in args)
            if None in exps:
                raise RuntimeError("character argument is not a unit")
            walked = self._unimodular_maps[g] = sources, exps
        return walked

    def rows(self, sigma, op, fold=False):
        """sum(q_M * |_Sigma M) gathered by target point: chi twist exponent
        e -> (sources, coefficients).  sources[j] lists the source
        coordinates of the blocks landing on point j, each block's kept
        coordinates once; coefficients[t] is row t before the twist by
        zeta^e, its integer entries aligned with sources[t // (w+1)], each
        block's row as it stands, zeros included.  The terms are first summed
        as blocks, q_M W(M) (W the weight action) added per (source point,
        target point, exponent).

        With fold, the rows act on vectors of Ker(1+S) given by their values
        at the pivots of kernel_one_plus_S (_fold), and every source is such
        a pivot.  There v[j, w-k] = -zeta^e (-1)^k v[i, k] for a point j
        whose S-partner i > j, e the exponent of S at j: a block B with
        source j moves, before blocks are summed, to source i at exponent
        + e as -B W(S), its columns reversed with signs (-1)^(k+1).  At a
        point S fixes only the columns below the middle move, onto the upper
        half of the same point; the middle column stays when it is a pivot,
        and is dropped when v vanishes there.

        The matrices are taken one class at a time (_coset_classes), and
        only the first of a class is walked by sigma_block_map, every
        member certified and every character argument checked to be a unit,
        kept or not.  Each other is P = P' g = +-M for its key M, P' the
        matrix of an earlier member and g one of S, U, U^2.  With A_k g
        A_j^-1 = gamma in Gamma_0(N) (k = the source of g at j) and A_i P'
        A_k^-1 = mu in the coset, A_i P A_j^-1 = mu gamma is in it too, with
        argument mu_a gamma_a mod N: the source of P at j is that of P' at
        k, its exponent the sum of the two, a unit's as mu_a is one.  P
        stands for M as -I acts as chi(-1) (-1)^w = 1, and W(P) is made
        once per member that keeps a block.

        For an even order m, zeta^(m/2) = -1: a block at exponent e + m/2
        is added, negated, at exponent e, so every exponent is below m/2.
        Where each block lands is looked up per (source point, exponent)
        (_landing)."""
        w, w1, m = self.w, self.w + 1, self.order
        table = self.chi.table()
        if fold:
            land, lo, forms = self._fold.land, self._fold.lo, self._fold.forms
        else:
            land = [[(_landing(m, i, e, 0),) for e in range(m)] for i in range(self.npoints)]
            lo, forms = [0] * self.npoints, None
        blocks = {}  # (source point, target point, exponent) -> summed q W(M), row-major
        for cls in _coset_classes(op):
            members = []  # per member: (sources, exponents)
            for key, P, parent, g in cls:
                if parent is None:
                    sources, exps = [], []
                    for ent in sigma_block_map(sigma, P):
                        if ent is None:
                            sources.append(None)
                            exps.append(0)
                            continue
                        i, arg = ent
                        exp = table[arg]
                        if exp is None:  # checked whether or not the block is kept
                            raise RuntimeError("character argument is not a unit")
                        sources.append(i)
                        exps.append(exp)
                else:
                    psources, pexps = members[parent]
                    gsources, gexps = self._unimodular_map(g)
                    sources = list(map(psources.__getitem__, gsources))
                    exps = [(pexps[s] + e) % m for s, e in zip(gsources, gexps)]
                members.append((sources, exps))
                made = None  # this member's block per slot (_landing), made on first use
                for j, (i, exp) in enumerate(zip(sources, exps)):
                    if i is None:
                        continue
                    if made is None:
                        made = [[op[key] * x for row in weight_action(P, w) for x in row], None, None, None, None, None]
                    for d, e, slot in land[i][exp]:
                        f = made[slot] or _block(made, slot, forms)
                        blk = blocks.get((d, j, e))
                        blocks[d, j, e] = f if blk is None else list(map(add, blk, f))
        rows = defaultdict(lambda: ([[] for _ in range(self.npoints)], [[] for _ in range(self.dim)]))
        for (i, j, exp), blk in blocks.items():
            sources, coefficients = rows[exp]
            c0 = lo[i]
            sources[j].extend(range(i * w1 + c0, (i + 1) * w1))
            for r in range(w1):
                coefficients[j * w1 + r].extend(blk[r * w1 + c0 : (r + 1) * w1])
        return rows

    # -- structured kernels ------------------------------------------------------

    def kernel_one_plus_S(self):
        """(basis of Ker(1 + S) as sparse vectors, its pivots), written down.
        Column k of W_S is (-1)^k at row w-k, so with block j = zeta^e W_S
        block i, the vector pivoted at (i, k) is the field's 1 there and
        -zeta^e W_S[w-k][k] at (j, w-k).  A pair of points gives w+1 vectors,
        laid out at its first point; a point S fixes keeps the k with 2k > w,
        and k = w/2 when 1 + zeta^e W_S[k][k] = 0, both valid as zeta^2e =
        (-1)^w there, which is checked.  Each vector is the field's 1 at its
        own pivot and 0 at the others'."""
        w, m, w1 = self.w, self.order, self.w + 1
        wm = weight_action(S, w)
        one = zeta_power(m, 0)
        basis = []
        pivots = []
        for j, (i, e) in enumerate(zip(*self._unimodular_map(S))):
            if i < j:
                continue
            if i == j and zeta_power(m, 2 * e) != tuple((-1) ** w * x for x in one):
                raise RuntimeError("S does not square to (-1)^w at a fixed point")
            z = zeta_power(m, e)
            for k in range(w1):
                p, q = i * w1 + k, j * w1 + w - k
                t = tuple([-x * wm[w - k][k] for x in z])
                if i == j and (2 * k < w or (p == q and t != one)):
                    continue
                basis.append({p: one, q: t})  # {p: one} when p == q
                pivots.append(p)
        return basis, pivots

    @cached_property
    def _fold(self):
        """The Ker(1+S) coordinates, laid out once per module from
        kernel_one_plus_S: a vector of Ker(1+S) is its values at pivots.

        For rows: land[i][e], the (point, exponent, slot) (_landing) at
        which a block with source point i and exponent e is summed; lo[i],
        the first column kept at i; forms[f] = (entry index, sign) per
        row-major entry of the moved block, form 1 the whole -B W(S) and
        form 2 its columns k with 2k > w only.  For the certificate:
        relations, per value u that a vector takes off its pivot, (those
        coordinates, their vectors' pivots, u's multiplication matrix);
        dropped, the middle coordinates of the points S fixes that no vector
        holds."""
        w, w1, m = self.w, self.w + 1, self.order
        bs, pivots = self.kernel_one_plus_S()
        groups = defaultdict(lambda: ([], []))  # u -> (coordinates, pivots)
        for vec, p in zip(bs, pivots):
            for s, u in vec.items():
                if s != p:
                    groups[u][0].append(s)
                    groups[u][1].append(p)
        relations = [(coords, ps, mult_matrix(m, u)) for u, (coords, ps) in groups.items()]
        held = set(pivots).union(*(coords for coords, _, _ in relations))
        dropped = [s for s in range(self.dim) if s not in held]
        counts = defaultdict(int)  # point -> its pivots
        for p in pivots:
            counts[p // w1] += 1
        land, lo = [], []
        for j, (i, e) in enumerate(zip(*self._unimodular_map(S))):
            lo.append(w1 - counts[j] if i == j else 0)
            if i < j:
                ways = ((j, 0, 0),)
            elif i > j:
                ways = ((i, e, 1),)
            else:  # S fixes j; at w = 0 nothing moves, and a dropped middle keeps nothing
                ways = ((j, 0, 0),) * (lo[j] < w1) + ((j, e, 2),) * (w > 0)
            land.append([tuple(_landing(m, d, exp + shift, form) for d, shift, form in ways) for exp in range(m)])
        rev = [r * w1 + w - k for r in range(w1) for k in range(w1)]
        signs = [(-1) ** (k + 1) for _ in range(w1) for k in range(w1)]
        upper = [s if 2 * (n % w1) > w else 0 for n, s in enumerate(signs)]
        return _Fold(pivots, land, lo, (None, (rev, signs), (rev, upper)), relations, dropped)

    def _period_system(self):
        """The sparse rows whose common kernel, in the coordinates of the
        Ker(1+S) vectors (_fold.pivots, by index), is the period space: row
        t of 1+U+U^2 (rows, folded) for the targets t at one point of each
        U-orbit only.  Every source of a folded row is the pivot of one
        Ker(1+S) vector; the coefficient there, twisted by zeta^exponent, is
        that vector's entry in the row.

        That keeps the row space.  U^3 = -I acts as chi(-1)(-1)^w = 1, so
        (1+U+U^2) U = 1+U+U^2 and every image v of 1+U+U^2 is U-invariant:
        each block of v is zeta^e W(U), an invertible map, applied to v's
        block at the next point of the same U-orbit.  So v vanishes exactly
        when its blocks at the orbit representatives do, and the kept rows
        cut out the same kernel as all of them.  A point U fixes is its own
        orbit and keeps its w+1 rows."""
        m, w1 = self.order, self.w + 1
        column = {p: k for k, p in enumerate(self._fold.pivots)}
        gathered = self.rows(self.unimodular, {IDENT: 1, U: 1, mat_mul(U, U): 1}, fold=True)
        source = self._unimodular_map(U)[0]
        rows = []
        done = set()
        for j in range(self.npoints):
            if j in done:
                continue
            done.update((j, source[j], source[source[j]]))  # U^3 fixes every point
            held = [  # per exponent: the vector of each source, zeta^exp and the rows
                (list(map(column.__getitem__, sources[j])), zeta_power(m, exp), coefficients)
                for exp, (sources, coefficients) in gathered.items()
            ]
            for t in range(j * w1, (j + 1) * w1):
                row = {}
                for ks, z, coefficients in held:
                    for k, q in zip(ks, coefficients[t]):
                        if q:
                            old = row.get(k)
                            row[k] = [q * x for x in z] if old is None else [y + q * x for y, x in zip(old, z)]
                row = {k: tuple(value) for k, value in row.items() if any(value)}
                if row:
                    rows.append(row)
        # by the first vector a row holds, then its last, descending: fewer
        # clearing steps than coordinate order
        rows.sort(key=lambda row: (min(row), -max(row)))
        return rows

    def _scaled_period_space(self):
        """(sparse integer vectors, pivots, dens) of the period space
        Ker(1+S) intersect Ker(1+U+U^2), in Ker(1+S) coordinates: vector k
        is dens[k] times the field's 1 at pivot k and 0 at the others'.  The
        free columns of the elimination of _period_system pick Ker(1+S)
        vectors, whose pivots carry over.  A solution is a sum of Ker(1+S)
        vectors, each the field's 1 at its own pivot and 0 at the others',
        so its coefficients are its values at those pivots."""
        pivots = self._fold.pivots
        sols, free = _nullspace(self._period_system(), self.order, len(pivots))
        vectors = ({pivots[k]: a for k, a in sol.items()} for sol in sols)  # built as consumed
        return vectors, [pivots[fc] for fc in free], [sol[fc][0] for sol, fc in zip(sols, free)]

    @cached_property
    def period_basis(self):
        """The Subspace of the period space, scaled to integers, in Ker(1+S)
        coordinates."""
        return Subspace(self, *self._scaled_period_space(), kernel=self._fold)

    @cached_property
    def translation_basis(self):
        """The Subspace of Ker(1 - T): one vector per admissible translation
        orbit, powers of zeta at the orbit's points, pivoted at the orbit's
        start point with scale 1."""
        w1 = self.w + 1
        sources, exponents = self._unimodular_map(T)
        vectors = []
        pivots = []
        done = set()
        for j0 in range(self.npoints):
            if j0 in done:
                continue
            cycle = [j0]
            exps = []
            cur = j0
            while True:
                i = sources[cur]
                exps.append(exponents[cur])
                if i == j0:
                    break
                cycle.append(i)
                cur = i
            done.update(cycle)
            if sum(exps) % self.order:
                continue  # inadmissible orbit: only the zero invariant vector
            vec = {j0 * w1: zeta_power(self.order, 0)}
            run = 0
            for k in range(len(cycle) - 1, 0, -1):
                run = (run + exps[k]) % self.order
                vec[cycle[k] * w1] = zeta_power(self.order, run)
            vectors.append(vec)
            pivots.append(j0 * w1)
        return Subspace(self, vectors, pivots, [1] * len(pivots))


# -- plane sums and sparse elimination ------------------------------------------


def _add_scaled(dst, qmat, src):
    """dst += q * src on lists of per-plane values, q given by its
    multiplication matrix.

    Replaces the planes of dst by new lists; src is left alone."""
    for c, qrow in enumerate(qmat):
        plane = dst[c]
        for q, splane in zip(qrow, src):
            if q:
                # an exact zero on either side skips a big-int addition
                plane = [(d + q * s if d else q * s) if s else d for d, s in zip(plane, splane)]
        dst[c] = plane


def _primitive(row, sign=1):
    """A sparse integer row over the gcd of its coefficients, times sign."""
    g = math.gcd(*[x for t in row.values() for x in t]) * sign
    return row if g == 1 else {j: tuple([x // g for x in t]) for j, t in row.items()}


def _clear(m, row, col, prow):
    """(L/h) row - (b/h) prow over its content, L the positive integer
    prow[col], b = row[col], h = gcd(L, content of b); row is consumed."""
    L = prow[col][0]
    b = row.pop(col)
    h = math.gcd(L, *b)
    b = tuple([x // h for x in b])
    if L != h:
        row = {j: tuple([L // h * x for x in t]) for j, t in row.items()}
    for j, t in prow.items():
        if j == col:
            continue
        if len(b) == 1:  # a rational character: plain int products
            v = (row[j][0] - b[0] * t[0],) if j in row else (-b[0] * t[0],)
        else:
            p = cyclo_mul(m, b, t)
            v = tuple([x - y for x, y in zip(row[j], p)]) if j in row else tuple([-y for y in p])
        if any(v):
            row[j] = v
        else:
            del row[j]
    return _primitive(row) if row else row


def _nullspace(rows, m, ncols):
    """(basis, free columns) of the nullspace of sparse rows over Z[zeta_m],
    dicts column -> integer tuple.  Each step pivots on the sparsest row at
    its lowest column (a least-used one gave far larger denominators), times
    the other Galois conjugates of its lead, now a positive integer, and
    clears that column from the other rows by integer cross-multiplication;
    then back-substitution.  Basis vector k is a multiple of the field's 1
    at free[k], 0 at the others."""
    import heapq  # imported on use, so importing trace_kit does no extra work
    active = dict(enumerate(filter(None, rows)))
    where = defaultdict(set)  # column -> the active rows holding it
    for i, row in active.items():
        for j in row:
            where[j].add(i)
    heap = sorted((len(row), i) for i, row in active.items())  # a sorted list is a heap
    done = {}  # pivot column -> pivot row, in elimination order
    while heap:
        size, i = heapq.heappop(heap)
        row = active.get(i)
        if not row or len(row) != size:
            continue  # pivoted, cleared to zero, or a stale heap entry
        del active[i]
        for j in row:
            where[j].discard(i)
        col = min(row)
        if any(row[col][1:]):
            conj = cyclo_conjugates(m, row[col])
            row = {j: cyclo_mul(m, t, conj) for j, t in row.items()}
        done[col] = row = _primitive(row, -1 if row[col][0] < 0 else 1)
        for r in where.pop(col):
            other = active[r] = _clear(m, active[r], col, row)
            for j in row:
                (where[j].add if j in other else where[j].discard)(r)
            heapq.heappush(heap, (len(other), r))
    for col in reversed(done):
        for j in [j for j in done[col] if j != col and j in done]:
            done[col] = _clear(m, done[col], j, done[j])
    # a pivot row now holds its pivot and free columns only; once the free
    # columns have their denominators, each row is spent on their vectors
    free = [j for j in range(ncols) if j not in done]
    dens = dict.fromkeys(free, 1)
    for col, row in done.items():
        for j in row.keys() - {col}:
            dens[j] = math.lcm(dens[j], row[col][0])
    basis = {fc: {fc: tuple(den * x for x in zeta_power(m, 0))} for fc, den in dens.items()}
    for col in list(done):
        row = done.pop(col)
        L = row.pop(col)[0]
        for j, t in row.items():
            basis[j][col] = tuple(-x * (dens[j] // L) for x in t)
    return list(basis.values()), free


# -- cached subspaces and restricted traces -----------------------------------


class Subspace:
    """An integer-scaled basis of a cached subspace, laid out for traces.

    Built from sparse vectors, taken one at a time: vector k must be d_k =
    scales[k] times the field's 1 at its own pivot p_k and 0 at the other
    pivots, compared on whole coefficient tuples.  kernel is None for
    vectors in full coordinates, or the module's Ker(1+S) layout (_fold)
    for vectors of Ker(1+S) given at its pivots only, each p_k among them.
    Only its packing layout is kept: planes[k][c] = (coordinates, values) of
    the nonzero coefficients of zeta^c at the coordinates given.  Kept with
    it for _trace_on_space: L = lcm(d_k) and factors[k] = L / d_k; norm, the
    largest l1 norm of a vector; spread, the largest l1 norm at one
    coordinate of sum_k factors[k] |vector k|, both over the coordinates
    given.
    """

    def __init__(self, mod, vectors, pivots, scales, kernel=None):
        where = {p: j for j, p in enumerate(pivots)}
        zeros = (0,) * (mod.g - 1)
        self.pivots, self.scales, self.kernel = pivots, scales, kernel
        self.L = math.lcm(*scales)
        self.factors = [self.L // d for d in scales]
        self.planes = []
        weight = [0] * mod.dim
        for k, (vec, d, f) in enumerate(zip(vectors, scales, self.factors)):
            if {where[s]: t for s, t in vec.items() if s in where} != {k: (d, *zeros)}:
                raise RuntimeError("basis is not reduced at its pivots")
            vp = [([], []) for _ in range(mod.g)]
            for s, t in vec.items():
                for (coords, values), x in zip(vp, t):
                    if x:
                        coords.append(s)
                        values.append(x)
                        weight[s] += f * abs(x)
            self.planes.append(vp)
        self.norm = max((sum(sum(map(abs, values)) for _, values in vp) for vp in self.planes), default=0)
        self.spread = max(weight)


# criteria 4, 5 and 6 open 210 modules in one process and reuse them
@lru_cache(maxsize=256)
def period_module(N, chi, w):
    """The PeriodModule of (N, chi, w); its subspaces are cached on it."""
    return PeriodModule(N, chi, w)


def dim_period_space(N, chi, w):
    return len(period_module(N, chi, w).period_basis.pivots)


def dim_translation_fixed(N, chi, w):
    return len(period_module(N, chi, w).translation_basis.pivots)


# basis vectors packed into one int per coordinate and plane
SLAB = 32


def _slot_bits(bound):
    """Width of a signed slot that holds every integer of size at most
    bound: 2^(bits-1) > bound."""
    return bound.bit_length() + 1


def _image_bound(mod, op, space):
    """A bound on every coefficient of every image of a basis vector of
    space under op, scaled to integers q_M (_trace_on_space)."""
    alpha = sum(abs(q) * max(abs(a) + abs(b), abs(c) + abs(d)) ** mod.w for (a, b, c, d), q in op.items())
    return alpha * space.norm * mod.zeta_bound * (1 if space.kernel is None else 2)


def _in_kernel(images, kernel):
    """Whether the packed image planes lie in Ker(1+S): at every coordinate
    off the pivots of kernel (a _Fold), u times the value at the pivot of
    the Ker(1+S) vector holding it, u that vector's value there, and 0 at a
    dropped middle coordinate."""
    for coords, pivots, umat in kernel.relations:
        at_pivots = [list(map(plane.__getitem__, pivots)) for plane in images]
        for plane, urow in zip(images, umat):
            want = [0] * len(coords)
            for z, ys in zip(urow, at_pivots):
                if z:
                    want = list(map(add, want, map(mul, repeat(z), ys)))
            if list(map(plane.__getitem__, coords)) != want:
                return False
    return not any(any(map(plane.__getitem__, kernel.dropped)) for plane in images)


def _trace_on_space(mod, sigma, op, space):
    """Exact trace of op acting through sigma on a cached Subspace, read off
    the images of its integer basis at the pivots, SLAB vectors at a time.

    Row t of the operator, one per exponent (PeriodModule.rows), holds the
    entries landing on coordinate t, aligned with the sources of its target
    point.  For a space in Ker(1+S) coordinates (space.kernel) the rows are
    folded: every source is a Ker(1+S) pivot, and t still runs over every
    coordinate.  A slab is packed into one int per coordinate and plane,
    vector k a signed slot of `bits` bits at offset bits * k (Kronecker
    substitution).  Per plane, each target point's sources are read once and
    handed to its w+1 rows, so image coordinate t of a plane is one C-level
    dot product of row t with them for the whole slab, zero products
    skipped (adding one would copy the running sum), and each image plane
    is twisted once.  Slot k of the image Y_t at coordinate t is coordinate
    t of the image of vector k, whose coordinate on basis vector j is
    Y_{p_j} / d_j.  Before any of it is used, every image must lie exactly
    in the span.  In full coordinates, R_t = L Y_t - sum_j basis_j[t] (L /
    d_j) Y_{p_j} must be 0 in Z at every t (terms with Y_{p_j} = 0
    skipped).  In Ker(1+S) coordinates, R_t must be 0 at every Ker(1+S)
    pivot t, and Y must lie in Ker(1+S) (_in_kernel): at each other
    coordinate t, Y_t = u Y_p for the pivot p and value u = -zeta^e (-1)^k
    of the Ker(1+S) vector holding t, and Y_t = 0 at a dropped middle
    coordinate.  Together these are the span: it lies in Ker(1+S), where a
    vector is fixed by its values at the pivots, and there Y and sum_j
    (Y_{p_j} / d_j) basis_j agree.  The trace adds the diagonal slots of
    Y_{p_k} / d_k.

    bits comes from an a-priori bound (_image_bound).  With op scaled to
    integers q_M, the term of q_M in Y_t reads one source block of a basis
    vector v through zeta^e W(M), so in each plane it is at most Z |q_M|
    max|W(M)| |v|_1, Z = mod.zeta_bound bounding the entries of a twist;
    max|W(M)| <= max(|a|+|b|, |c|+|d|)^w, since column i of W(M) holds the
    coefficients of (aX+b)^i (cX+d)^(w-i).  Folded, the term reads v's
    values at the pivots of one point through W(M) or -W(M) W(S), whose
    entries are those of W(M), once, or twice at a point S fixes (its upper
    half as it stands and its lower half moved).  So alpha = sum |q_M|
    max|W(M)| * norm * Z, doubled in Ker(1+S) coordinates, bounds every
    coefficient of every image in every plane, norm being the l1 norm over
    the coordinates a vector is given at.  A term b (L / d_j) y of R_t is at
    most Z |b (L / d_j)|_1 |y|_1 in each plane, with |y|_1 <= g alpha, so
    every slot of every R_t is at most alpha (L + Z g spread).  Y_t - u Y_p
    is at most alpha (1 + Z g) in each plane, which is no more, as spread
    >= L >= 1 (the sum at pivot p_k is d_k L / d_k).  Packing is linear, so
    only those final values count: all lie strictly inside (-2^(bits-1),
    2^(bits-1)), a packed int is 0 exactly when all its slots are, and a
    slot reads back exactly from the int biased by 2^(bits-1) in every
    slot.
    """
    if not space.pivots:
        return CycloNum.zero(1)
    den = math.lcm(*(q.denominator for q in op.coeffs.values()))
    op = {m: int(q * den) for m, q in op.coeffs.items()}
    g, dim, L, w1, kernel = mod.g, mod.dim, space.L, mod.w + 1, space.kernel
    rows = mod.rows(sigma, op, fold=kernel is not None)
    alpha = _image_bound(mod, op, space)
    bits = _slot_bits(alpha * (L + mod.zeta_bound * g * space.spread))
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    layout = []  # per exponent: every target point's sources in one list, cut per point
    for exp, (sources, coefficients) in rows.items():
        ends = list(accumulate(map(len, sources)))
        layout.append((exp, list(chain.from_iterable(sources)), list(map(slice, [0, *ends], ends)), coefficients))
    total = [0] * g
    for base in range(0, len(space.pivots), SLAB):
        slab = range(base, min(base + SLAB, len(space.pivots)))
        packed = [[0] * dim for _ in range(g)]
        for k in slab:
            shift = bits * (k - base)
            for dst, (coords, values) in zip(packed, space.planes[k]):
                for s, x in zip(coords, values):
                    dst[s] += x << shift
        accs = {}  # exponent -> untwisted image planes, one dot product per target coordinate
        for exp, flat, cuts, coefficients in layout:
            acc = accs[exp] = []
            for plane in packed:
                # each source read once, handed to the w+1 rows of its target point
                per_row = chain.from_iterable(map(repeat, map(list(map(plane.__getitem__, flat)).__getitem__, cuts), repeat(w1)))
                # a zero product is skipped: adding it would copy the running sum
                acc.append(list(map(sum, map(filter, repeat(None), map(map, repeat(mul), coefficients, per_row)))))
        images = accs.pop(0, None) or [[0] * dim for _ in range(g)]  # zeta^0 is the identity
        for exp, acc in accs.items():
            _add_scaled(images, mod._zeta[exp], acc)
        resid = [[L * y for y in plane] for plane in images]
        for j, (p, f) in enumerate(zip(space.pivots, space.factors)):
            ys = [plane[p] * f for plane in images]
            if not any(ys):
                continue
            # basis_j[t] y = sum_c (plane c of basis_j at t) zeta^c y
            for c, (coords, values) in enumerate(space.planes[j]):
                zy = ys if c == 0 else [sum([z * y for z, y in zip(row, ys) if z]) for row in mod._zeta[c]]
                for dst, y in zip(resid, zy):
                    if y:
                        for t, x in zip(coords, values):
                            dst[t] -= x * y
        if kernel is not None:  # the residual at the Ker(1+S) pivots, the relations elsewhere
            resid = [map(plane.__getitem__, kernel.pivots) for plane in resid]
        if any(map(any, resid)) or (kernel is not None and not _in_kernel(images, kernel)):
            raise RuntimeError("operator does not preserve the subspace")
        bias = half * ((1 << (bits * len(slab))) - 1) // mask  # 2^(bits-1) in every slot
        for k in slab:
            p, f, shift = space.pivots[k], space.factors[k], bits * (k - base)
            for c, plane in enumerate(images):
                total[c] += ((((plane[p] + bias) >> shift) & mask) - half) * f
    return CycloNum(mod.order if g > 1 else 1, (QQ(t, L * den) for t in total))


def _period_job(N, chi, w, sigma, op):
    """The PeriodModule of a trace of op through sigma, once the descriptor
    is checked to belong to the level, the character and the operator."""
    if sigma[0] != N:
        raise ValueError("coset descriptor level must equal N")
    validate_query(N, chi, w + 2, ell=sigma[1])
    if sigma_det(sigma) != op.det:
        raise ValueError("operator determinant does not match the double coset")
    return period_module(N, chi, w)


def trace_on_W(N, chi, w, sigma, op):
    """Trace of the group-ring element op acting through sigma on the period
    space; raises if the space is not preserved exactly."""
    mod = _period_job(N, chi, w, sigma, op)
    return _trace_on_space(mod, sigma, op, mod.period_basis)


def trace_on_V(N, chi, w, sigma, op):
    """Trace of op on the full module (blockwise, no elimination)."""
    _period_job(N, chi, w, sigma, op)
    total = CycloNum.zero(chi.order)
    for m, q in op.coeffs.items():
        wm = weight_action(m, w)
        ptrace = sum(wm[r][r] for r in range(w + 1))
        if ptrace:
            total = total + chi.total(_fixed_point_args(sigma, m)) * (QQ(q) * ptrace)
    return total


def trace_coboundary(N, chi, w, sigma, n_infinity_op):
    """Trace of the infinity-coset operator on Ker(1-T), with the weight-2
    trivial-character correction; equals the Eisenstein trace."""
    mod = _period_job(N, chi, w, sigma, n_infinity_op)
    val = _trace_on_space(mod, sigma, n_infinity_op, mod.translation_basis)
    if w == 0 and chi.is_trivial():
        val = val - sigma1_N(N, sigma[2])
    return val
