"""The universal degree-n operator on the rational group ring of projective
integral matrices, built two independent ways and machine-verified.

The geometric construction sums one representative per elliptic conjugacy
class (fixed point in a fundamental strip, boundary tie-breaks applied
verbatim), an upper-triangular family, a scalar term at square n, and three
auxiliary inequality-system families with their conjugate corrections.  The
condensed construction is a five-sum simplification with half/third-weighted
boundary terms.  Both must agree exactly, and the result is checked against
the three structural properties that make it act on period polynomials:

  transfer:    (1-S) Op_n - Inf_n (1-S)  lies in  (1-T) R_n
  exchange:    Op_n (1+S) in (1+U+U^2) R_n  and  Op_n (1+U+U^2) in (1+S) R_n
  class sums:  coefficients summed over each conjugacy class equal the
               class weight epsilon
"""

import math
from functools import lru_cache

from .arith import QQ, divisors, is_square, isqrt  # noqa: F401
from .class_numbers import _reduced_forms
from .matrix_forms import (
    IDENT,
    S,
    U,
    class_label,
    epsilon,
    form_neg,
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
        key = proj_canonical(m)
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
            new = out.coeffs.get(m, 0) + q
            if new:
                out.coeffs[m] = new
            else:
                out.coeffs.pop(m, None)
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
        acc = out.coeffs
        for m1, q1 in self.coeffs.items():
            for m2, q2 in other.coeffs.items():
                key = proj_canonical(mat_mul(m1, m2))
                new = acc.get(key, 0) + q1 * q2
                if new:
                    acc[key] = new
                else:
                    acc.pop(key, None)
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


def _single(m):
    out = GroupRingElem(mat_det(m))
    out.add_term(m, QQ(1))
    return out


def _gamma_elem(terms):
    out = GroupRingElem(1)
    for m, q in terms:
        out.add_term(m, QQ(q))
    return out


ONE_MINUS_S = _gamma_elem([(IDENT, 1), (S, -1)])
ONE_PLUS_S = _gamma_elem([(IDENT, 1), (S, 1)])
ONE_PLUS_UUU = _gamma_elem([(IDENT, 1), (U, 1), (mat_mul(U, U), 1)])


# -- matrix family enumeration ---------------------------------------------------


def det_matrices(n, bound):
    """All integer matrices of determinant n with |entries| <= bound."""
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
    """Membership in the canonical elliptic representative set.

    Positive definite attached form, fixed point inside the strip
    {0 <= Re z <= 1/2, |z-1| >= 1}, boundary resolved by trace sign:
      Re z = 0,  |z| > 1  -> tr > 0        Re z = 0,  |z| < 1 -> tr <= 0
      Re z = 1/2, |z| > 1 -> tr <= 0       |z-1| = 1, |z| < 1 -> tr > 0
    Algebraically (with mm = a - d, nb = -b): c > 0, 0 <= mm <= c, nb >= mm.
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


_FAMILIES = {
    "upper": in_upper_family,
    "X": in_X_family,
    "Y": in_Y_family,
    "Z": in_Z_family,
    "elliptic": in_elliptic_rep,
}


def family_bound(n):
    """Entry bound covering every family member of determinant n."""
    return 2 * n + 2


def enumerate_family(n, name, bound=None):
    pred = _FAMILIES[name]
    b = family_bound(n) if bound is None else bound
    return sorted(m for m in det_matrices(n, b) if pred(m, n))


# -- constructions ----------------------------------------------------------------


def build_Tn_infty(n):
    """Sum of the upper-triangular coset representatives fixing infinity."""
    out = GroupRingElem(n)
    for d in divisors(n):
        a = n // d
        for b in range(d):
            out.add_term((a, b, 0, d), QQ(1))
    return out


def build_elliptic_reps(n):
    """(matrix, -1/stabilizer order) for one representative per elliptic class."""
    return [(m, QQ(-1, stab_order(m))) for m in enumerate_family(n, "elliptic")]


def _family_elem(n, name):
    out = GroupRingElem(n)
    for m in enumerate_family(n, name):
        out.add_term(m, QQ(1))
    return out


@lru_cache(maxsize=None)
def build_Tn(n, variant="geometric"):
    """The universal degree-n operator.

    variant='geometric': elliptic representatives + upper-triangular family +
    scalar term + correction families X, Y, Z with their S/U conjugates.
    variant='condensed': the simplified five-sum form; the scalar carries
    coefficient 1/6 (forced by the class-sum property at square n).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if variant == "geometric":
        out = GroupRingElem(n)
        for m, c in build_elliptic_reps(n):
            out.add_term(m, c)
        out = out + _family_elem(n, "upper")
        if is_square(n):
            r = isqrt(n)
            out.add_term((r, 0, 0, r), QQ(1, 6))
        x = _family_elem(n, "X")
        sxs = _single(S) * x * _single(S)
        yz = _family_elem(n, "Y") + _family_elem(n, "Z")
        uuyzu = _single(mat_mul(U, U)) * yz * _single(U)
        return out + x - sxs + yz - uuyzu
    if variant == "condensed":
        return _build_condensed(n)
    raise ValueError(f"unknown variant {variant!r}")


def _build_condensed(n):
    bound = family_bound(n)
    out = GroupRingElem(n)
    for m in det_matrices(n, bound):
        a, b, c, d = m
        mm, nb = a - d, -b
        if mm < nb <= c and 0 <= c < a:
            out.add_term(m, QQ(1))
        if nb <= mm < c and 0 <= -d < nb:
            out.add_term(m, QQ(-1))
        if 0 < mm <= c < nb and a <= 0:
            out.add_term(m, QQ(-1))
        if 0 <= mm < nb < c and d <= 0:
            out.add_term(m, QQ(-1))
        if 0 <= mm <= nb == c:
            # primed boundary sum: half/third weights at the circle corners;
            # both sign lifts of the scalar land here, so its -1/12 raw
            # weight accumulates to the projective coefficient 1/6
            if mm == 0 and nb == 0:
                out.add_term(m, QQ(1, 12))
            elif mm == 0:
                out.add_term(m, QQ(-1, 2))
            elif mm == nb:
                out.add_term(m, QQ(-1, 3))
            else:
                out.add_term(m, QQ(-1))
    return out


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
_U_GENS = (IDENT, U, mat_mul(U, U))


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
    # elliptic classes via reduced positive definite forms of disc t^2-4n
    t = 0
    while t * t < 4 * n:
        D = t * t - 4 * n
        for A, B, C in _reduced_forms(-D):
            put(matrix_with_form(t, (A, B, C)))
            if t > 0:
                put(matrix_with_form(t, form_neg((A, B, C))))
        t += 1
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


def verify_operator(n, variant="geometric"):
    """Full property check of the degree-n operator.

    Returns a report dict with pass flags for the transfer identity, the two
    exchange memberships, the per-class coefficient sums, and agreement of
    the two constructions; failures carry witnesses.
    """
    op = build_Tn(n, variant)
    report = {"n": n, "variant": variant}

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

    other = build_Tn(n, "condensed" if variant == "geometric" else "geometric")
    report["variants_agree"] = op == other
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
