"""The universal degree-n operator on the rational group ring of projective
integral matrices, built two independent ways and machine-verified.

build_Tn is the geometric construction: one representative per elliptic
conjugacy class (fixed point in a fundamental strip, boundary tie-breaks
applied verbatim), an upper-triangular family, a scalar term at square n,
and three auxiliary inequality-system families with their conjugate
corrections.  The condensed construction, a five-sum simplification with
half/third-weighted boundary terms, is built only by verify_operator, as
the check on it.  Every family and every sum is generated straight from its
defining inequalities, each by its own loops, so the two constructions share
no enumeration; det_matrices, the box of all determinant-n matrices with
bounded entries, stays as the reference the tests filter.  Both must agree
exactly, and the result is checked against the three structural properties
that make it act on period polynomials:

  transfer:    (1-S) Op_n - Inf_n (1-S)  lies in  (1-T) R_n
  exchange:    Op_n (1+S) in (1+U+U^2) R_n  and  Op_n (1+U+U^2) in (1+S) R_n
  class sums:  coefficients summed over each conjugacy class equal the
               class weight epsilon

The class-sum check lists the elliptic classes with the elliptic family
itself, so this module imports only the layers the two routes share.
"""

import math
from functools import lru_cache

from .arith import QQ, divisors, is_square, isqrt  # noqa: F401
from .matrix_forms import (
    IDENT,
    S,
    U,
    class_label,
    epsilon,
    mat_det,
    mat_mul,
    mat_neg,
    matrix_with_form,
    proj_canonical,
    stab_order,
)

__all__ = [
    "GroupRingElem",
    "ONE_MINUS_S",
    "ONE_PLUS_S",
    "ONE_PLUS_UUU",
    "build_Tn_infty",
    "build_elliptic_reps",
    "build_Tn",
    "ideal_membership",
    "verify_operator",
    "expected_class_weights",
    "operator_json_entries",
]


class GroupRingElem:
    """Finitely supported map from canonical projective matrices to rationals."""

    __slots__ = ("det", "coeffs")

    def __init__(self, det, coeffs=None):
        self.det = det
        self.coeffs = {}
        if coeffs:
            for m, q in coeffs.items():
                self.add_term(m, q)

    def add_term(self, m, q):
        if mat_det(m) != self.det:
            raise ValueError("determinant mismatch in group-ring element")
        self._accumulate(proj_canonical(m), q)

    def _accumulate(self, key, q):
        """coeffs[key] += q, the key dropped once its coefficient is 0."""
        new = self.coeffs.get(key, 0) + q
        if new:
            self.coeffs[key] = new
        else:
            self.coeffs.pop(key, None)

    def __add__(self, other):
        if self.det != other.det:
            raise ValueError("cannot add elements of different determinant")
        out = GroupRingElem(self.det)
        out.coeffs = dict(self.coeffs)
        for m, q in other.coeffs.items():
            out._accumulate(m, q)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q):
        out = GroupRingElem(self.det)
        if q:
            out.coeffs = {m: c * q for m, c in self.coeffs.items()}
        return out

    def __mul__(self, other):
        out = GroupRingElem(self.det * other.det)
        for m1, q1 in self.coeffs.items():
            for m2, q2 in other.coeffs.items():
                out._accumulate(proj_canonical(mat_mul(m1, m2)), q1 * q2)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElem)
            and self.det == other.det
            and self.coeffs == other.coeffs
        )

    def __len__(self):
        return len(self.coeffs)

    def __repr__(self):
        return f"GroupRingElem(det={self.det}, support={len(self.coeffs)})"


_UU = mat_mul(U, U)
ONE_MINUS_S = GroupRingElem(1, {IDENT: 1, S: -1})
ONE_PLUS_S = GroupRingElem(1, {IDENT: 1, S: 1})
ONE_PLUS_UUU = GroupRingElem(1, {IDENT: 1, U: 1, _UU: 1})


# -- matrix families ---------------------------------------------------------------
#
# Each family is a finite set of integer matrices (a, b, c, d) of determinant n,
# cut out by a few linear inequalities.  Writing beta = -b, the determinant reads
# ad + beta*c = n.  Every generator below walks only the parameters its own
# inequalities leave and solves the determinant for the last entry; the loop
# bounds are derived next to each loop.


def det_matrices(n, bound):
    """All integer matrices of determinant n with |entries| <= bound.

    The reference box: the tests filter it to check every generator below.
    """
    for a in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            r = a * d - n
            if r == 0:
                for b in range(-bound, bound + 1):
                    yield (a, b, 0, d)
                for c in range(-bound, bound + 1):
                    if c != 0:
                        yield (a, 0, c, d)
            else:
                for b in divisors(abs(r)):
                    if b > bound:
                        continue
                    c = r // b
                    if abs(c) <= bound:
                        yield (a, b, c, d)
                        yield (a, -b, -c, d)


def _upper_family(n):
    """c = 0, a > 0, 0 <= b < d - a."""
    # ad = n with a > 0, so a runs over the divisors of n
    for a in divisors(n):
        d = n // a
        for b in range(d - a):
            yield (a, b, 0, d)


def _x_family(n):
    """0 < beta < c, 0 < d < a."""
    # beta*c = n - ad with 1 <= beta < c needs n - ad >= 2, and then
    # beta = 1 is a member; with 1 <= d < a that gives d*(d + 1) <= n - 2.
    # beta < c means beta^2 < n - ad: beta runs over the divisors of n - ad
    # below its square root, and c = (n - ad)/beta.
    d = 1
    while d * (d + 1) <= n - 2:
        a = d + 1
        while a * d <= n - 2:
            r = n - a * d
            for beta in divisors(r):
                if beta * beta >= r:
                    break
                yield (a, -beta, r // beta, d)
            a += 1
        d += 1


def _y_family(n):
    """a - d < beta <= c, 0 < c < a."""
    # With d = (n - beta*c)/a, beta > a - d (so d >= a - beta + 1) reads
    # beta*(a - c) >= a^2 + a - n, so beta runs over
    # [(a^2 + a - n)/(a - c), c], non-empty iff a^2 - ac + c^2 + a <= n.
    # For fixed c that grows with a > c, and at a = c + 1 it reads
    # c^2 + 2c + 2 <= n.
    c = 1
    while c * c + 2 * c + 2 <= n:
        a = c + 1
        while a * a - a * c + c * c + a <= n:
            for beta in range(-((n - a * a - a) // (a - c)), c + 1):
                r = n - beta * c
                if r % a == 0:
                    yield (a, -beta, c, r // a)
            a += 1
        c += 1


def _z_family(n):
    """a - d <= c < beta, 0 < a, 0 < c; on a - d = c only d <= -a."""
    # d = (n - beta*c)/a >= a - c reads beta*c <= n - a^2 + ac, so beta runs
    # over [c + 1, (n - a^2 + ac)/c], non-empty iff a^2 - ac + c^2 + c <= n:
    # a lies between the roots (c -+ sqrt(4n - 3c^2 - 4c))/2, which are real
    # while 3c^2 + 4c <= 4n.  The upper end of beta is the edge d = a - c,
    # which counts only when a - c <= -a.
    c = 1
    while 3 * c * c + 4 * c <= 4 * n:
        s = isqrt(4 * n - 3 * c * c - 4 * c)
        for a in range(max(1, (c - s + 1) // 2), (c + s) // 2 + 1):
            for beta in range(c + 1, (n - a * a + a * c) // c + 1):
                r = n - beta * c
                if r % a == 0 and (r // a != a - c or c >= 2 * a):
                    yield (a, -beta, c, r // a)
        c += 1


def _elliptic_family(n):
    """One representative per elliptic conjugacy class.

    The fixed point z = (mm + i*sqrt(4n - t^2))/(2c) of the matrix, with
    t = a + d and mm = a - d, lies in the strip {0 <= Re z <= 1/2,
    |z - 1| >= 1}; that is c > 0, t^2 < 4n, 0 <= mm <= c and beta >= mm.
    The boundary is resolved by the trace sign:
      Re z = 0,  |z| > 1  -> t > 0         Re z = 0,  |z| < 1 -> t <= 0
      Re z = 1/2, |z| > 1 -> t <= 0        |z-1| = 1, |z| < 1 -> t > 0
    """
    # t^2 < 4n is |t| <= isqrt(4n - 1).  The determinant gives
    # beta*c = (4n - t^2 + mm^2)/4 =: p, an integer as mm has t's parity, so
    # c runs over the divisors of p.  c >= mm and beta >= mm give p >= mm^2,
    # that is 3mm^2 <= 4n - t^2.
    T = isqrt(4 * n - 1)
    for t in range(-T, T + 1):
        for mm in range(t % 2, isqrt((4 * n - t * t) // 3) + 1, 2):
            p = (4 * n - t * t + mm * mm) // 4
            for c in divisors(p):
                beta = p // c
                if c < mm or beta < mm:
                    continue
                if mm == 0 and beta > c and not t > 0:
                    continue
                if mm == 0 and beta < c and not t <= 0:
                    continue
                if mm == c and beta > c and not t <= 0:
                    continue
                if beta == mm and beta < c and not t > 0:
                    continue
                yield ((t + mm) // 2, -beta, c, (t - mm) // 2)


# -- constructions ----------------------------------------------------------------


def build_Tn_infty(n):
    """Sum of the upper-triangular coset representatives fixing infinity."""
    out = GroupRingElem(n)
    for d in divisors(n):
        a = n // d
        for b in range(d):
            out.add_term((a, b, 0, d), 1)
    return out


def build_elliptic_reps(n):
    """(matrix, -1/stabilizer order) for one representative per elliptic class."""
    return [(m, QQ(-1, stab_order(m))) for m in sorted(_elliptic_family(n))]


@lru_cache(maxsize=256)
def build_Tn(n):
    """The universal degree-n operator: elliptic representatives +
    upper-triangular family + scalar term + correction families X, Y, Z
    with their S/U conjugates."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = GroupRingElem(n)
    for m, c in build_elliptic_reps(n):
        out.add_term(m, c)
    for m in sorted(_upper_family(n)):
        out.add_term(m, 1)
    if is_square(n):
        r = isqrt(n)
        out.add_term((r, 0, 0, r), QQ(1, 6))
    # a correction member enters with +1 and its conjugate with -1:
    # S m S for the X family, U^2 m U for the Y and Z families
    for family, left, right in ((_x_family, S, S), (_y_family, _UU, U), (_z_family, _UU, U)):
        for m in sorted(family(n)):
            out.add_term(m, 1)
            out.add_term(mat_mul(mat_mul(left, m), right), -1)
    return out


def _build_condensed(n):
    """The simplified five-sum form of build_Tn(n), not memoized: only
    verify_operator builds it, to compare with build_Tn.  The scalar carries
    coefficient 1/6 (forced by the class-sum property at square n)."""
    out = GroupRingElem(n)
    for condensed_sum in _CONDENSED_SUMS:
        for m, q in condensed_sum(n):
            out.add_term(m, q)
    return out


# The five sums of the condensed form, each a generator of (matrix, weight)
# walking its own parameters (mm = a - d, beta = -b as above).  None of them
# calls a geometric family generator, so variants_agree compares two
# independent enumerations.


def _condensed_plus(n):
    """+1 on mm < beta <= c, 0 <= c < a."""
    # Members have a >= c + 1 and, with d solved from the determinant,
    # d >= a - beta + 1 >= a - c + 1 >= 2; so ad = n - beta*c >= 2c + 2,
    # which with beta <= c needs c^2 + 2c + 2 <= n.  The same bound on d reads
    # beta*(a - c) >= a^2 + a - n >= 2 - n, so beta >= 2 - n.  For each
    # (c, beta), a runs over the divisors of ad above c.
    c = 0
    while c * c + 2 * c + 2 <= n:
        for beta in range(2 - n, c + 1):
            r = n - beta * c
            if r < 2 * c + 2:
                break
            for a in divisors(r):
                d = r // a
                if a > c and a - d < beta:
                    yield (a, -beta, c, d), 1
        c += 1


def _condensed_d_nonpositive(n):
    """-1 on beta <= mm < c, 0 <= -d < beta."""
    # With e = -d, a = mm - e and e < beta <= mm < c, the determinant gives
    # beta*c = n + e*(mm - e), and c >= mm + 1 reads
    # mm*(beta - e) + beta <= n - e^2.  That grows with mm >= beta, so it
    # bounds beta at mm = beta, and e at beta = mm = e + 1: e^2 + 2e + 2 <= n.
    e = 0
    while e * e + 2 * e + 2 <= n:
        beta = e + 1
        while beta * (beta - e + 1) <= n - e * e:
            mm = beta
            while mm * (beta - e) + beta <= n - e * e:
                r = n + e * (mm - e)
                if r % beta == 0:
                    yield (mm - e, -beta, r // beta, -e), -1
                mm += 1
            beta += 1
        e += 1


def _condensed_a_nonpositive(n):
    """-1 on 0 < mm <= c < beta, a <= 0."""
    # With f = -a >= 0, d = -(f + mm) and the determinant reads
    # f*(f + mm) + beta*c = n with beta >= c + 1: so c*(c + 1) <= n and
    # f*(f + mm) <= n - c*(c + 1), and beta = (n - f*(f + mm))/c.
    c = 1
    while c * (c + 1) <= n:
        for mm in range(1, c + 1):
            f = 0
            while f * (f + mm) + c * (c + 1) <= n:
                r = n - f * (f + mm)
                if r % c == 0:
                    yield (-f, -(r // c), c, -f - mm), -1
                f += 1
        c += 1


def _condensed_inner(n):
    """-1 on 0 <= mm < beta < c, d <= 0."""
    # With e = -d, a = mm - e, the determinant gives
    # beta*c = n + e*(mm - e) =: r, and mm < beta < c needs
    # r >= (mm + 1)*(mm + 2): e lies between the roots
    # (mm -+ sqrt(4n + mm^2 - 4(mm + 1)(mm + 2)))/2.  beta runs over the
    # divisors of r in (mm, sqrt(r)).
    mm = 0
    while 4 * (mm + 1) * (mm + 2) <= 4 * n + mm * mm:
        s = isqrt(4 * n + mm * mm - 4 * (mm + 1) * (mm + 2))
        for e in range(max(0, (mm - s + 1) // 2), (mm + s) // 2 + 1):
            r = n + e * (mm - e)
            beta = mm + 1
            while beta * beta < r:
                if r % beta == 0:
                    yield (mm - e, -beta, r // beta, -e), -1
                beta += 1
        mm += 1


def _condensed_boundary(n):
    """The primed sum on 0 <= mm <= beta = c.

    Half/third weights at the circle corners; both sign lifts of the
    scalar land here, so its 1/12 raw weight accumulates to the projective
    coefficient 1/6.
    """
    # The determinant is d^2 + mm*d + c^2 = n, a quadratic in d with
    # discriminant mm^2 + 4(n - c^2); d*(d + mm) >= -mm^2/4 >= -c^2/4 gives
    # 3c^2 <= 4n.
    c = 0
    while 3 * c * c <= 4 * n:
        for mm in range(c + 1):
            disc = mm * mm + 4 * (n - c * c)
            if not is_square(disc):
                continue
            s = isqrt(disc)
            if c == 0:
                q = QQ(1, 12)
            elif mm == 0:
                q = QQ(-1, 2)
            elif mm == c:
                q = QQ(-1, 3)
            else:
                q = -1
            for d in sorted({(s - mm) // 2, (-s - mm) // 2}):
                yield (d + mm, -c, c, d), q
        c += 1


_CONDENSED_SUMS = (
    _condensed_plus,
    _condensed_d_nonpositive,
    _condensed_a_nonpositive,
    _condensed_inner,
    _condensed_boundary,
)


# -- ideal membership ---------------------------------------------------------------


def _t_orbit_key(m):
    """Canonical key of the left translation orbit of a projective matrix."""
    best = None
    for mm in (m, mat_neg(m)):
        a, b, c, d = mm
        if c != 0:
            a1 = a % abs(c)
            k = (a1 - a) // c
            cand = (a1, b + k * d, c, d)
        else:
            cand = (a, b % abs(d), c, d)
        if best is None or cand < best:
            best = cand
    return best


def _gamma_orbit(m, gens):
    """Left orbit {g*m} over the listed powers, as canonical matrices."""
    return sorted({proj_canonical(mat_mul(g, m)) for g in gens})


_S_GENS = (IDENT, S)
_U_GENS = (IDENT, U, _UU)


def ideal_membership(elem, which):
    """Exact membership of a group-ring element in one of the three ideals.

    which = 'one_minus_T': coefficient sums vanish on every left translation
    orbit.  'one_plus_S' / 'one_plus_UUU': coefficients constant on left
    2-orbits of S / 3-orbits of U.  Returns (bool, witness-or-None).
    """
    if which == "one_minus_T":
        sums = {}
        for m, q in elem.coeffs.items():
            key = _t_orbit_key(m)
            sums[key] = sums.get(key, 0) + q
        for key, s in sums.items():
            if s:
                return False, ("translation orbit", key, s)
        return True, None
    gens = _S_GENS if which == "one_plus_S" else _U_GENS
    size = len(gens)
    orbits = {}
    for m, q in elem.coeffs.items():
        orbit = tuple(_gamma_orbit(m, gens))
        orbits.setdefault(orbit, []).append(q)
    for orbit, qs in orbits.items():
        if len(qs) < size or any(q != qs[0] for q in qs[1:]):
            return False, ("orbit not constant", orbit, tuple(qs))
    return True, None


# -- class-sum verification -----------------------------------------------------------


def expected_class_weights(n):
    """label -> weight for every conjugacy class of determinant n with
    nonzero weight (elliptic, scalar, split hyperbolic)."""
    out = {}

    def put(mat):
        lab = class_label(mat)
        eps = epsilon(mat)
        if lab in out:
            if out[lab][0] != eps:
                raise RuntimeError(f"label collision with differing weights: {lab}")
            return
        out[lab] = (eps, mat)

    if is_square(n):
        r = isqrt(n)
        put((r, 0, 0, r))
    # elliptic classes: the tests count them against the Hurwitz class numbers
    for mat in _elliptic_family(n):
        put(mat)
    # split hyperbolic classes: t^2 - 4n = m^2 > 0
    for e in divisors(4 * n):
        f = 4 * n // e
        if e >= f or (e - f) % 2:
            continue
        t = (e + f) // 2
        mdisc = (f - e) // 2
        for g in divisors(mdisc):
            mp = mdisc // g
            for k in range(mp):
                if math.gcd(k, mp) == 1:
                    put(matrix_with_form(t, (g * k, g * mp, 0)))
    return out


def verify_operator(n):
    """Full property check of the degree-n operator.

    Returns a report dict with pass flags for the transfer identity, the two
    exchange memberships, the per-class coefficient sums, and agreement of
    the two constructions; failures carry witnesses.
    """
    op = build_Tn(n)
    report = {"n": n}

    inf = build_Tn_infty(n)
    transfer = (ONE_MINUS_S * op) - (inf * ONE_MINUS_S)
    ok_a, wit_a = ideal_membership(transfer, "one_minus_T")
    report["transfer"] = ok_a
    report["transfer_witness"] = wit_a

    ok_b1, wit_b1 = ideal_membership(op * ONE_PLUS_S, "one_plus_UUU")
    ok_b2, wit_b2 = ideal_membership(op * ONE_PLUS_UUU, "one_plus_S")
    report["exchange"] = ok_b1 and ok_b2
    report["exchange_witness"] = wit_b1 or wit_b2

    sums = {}
    members = {}
    for m, q in op.coeffs.items():
        lab = class_label(m)
        sums[lab] = sums.get(lab, 0) + q
        members.setdefault(lab, m)
    expected = expected_class_weights(n)
    failures = []
    ledger = {}
    for lab, s in sums.items():
        eps = epsilon(members[lab])
        ledger[lab] = (s, eps)
        if s != eps:
            failures.append(("class sum mismatch", lab, s, eps))
    for lab, (eps, mat) in expected.items():
        if lab not in sums and eps:
            failures.append(("class missing from support", lab, 0, eps))
    report["class_sums"] = not failures
    report["class_witnesses"] = failures
    report["ledger"] = ledger

    report["variants_agree"] = op == _build_condensed(n)
    report["ok"] = (
        report["transfer"]
        and report["exchange"]
        and report["class_sums"]
        and report["variants_agree"]
    )
    return report


def operator_json_entries(elem):
    """JSON-ready rows {a,b,c,d,num,den}, sorted by the matrix entries."""
    rows = []
    for m in sorted(elem.coeffs):
        q = elem.coeffs[m]
        qq = QQ(q)
        rows.append(
            {
                "a": m[0],
                "b": m[1],
                "c": m[2],
                "d": m[3],
                "num": int(qq.numerator),
                "den": int(qq.denominator),
            }
        )
    return rows
