"""Integral 2x2 matrices, their binary quadratic forms, and conjugacy labels.

Matrices are plain tuples (a, b, c, d) of arbitrary-precision ints with
positive determinant.  The projective quotient identifies M with -M; the
canonical lift makes the first nonzero entry positive.

A matrix M = (a, b; c, d) carries the form Q_M = [c, d-a, -b] of discriminant
tr(M)^2 - 4 det(M).  Unimodular conjugacy of matrices matches proper
equivalence of forms at fixed trace, which is what the class label encodes.
"""

import math

from .arith import QQ, isqrt, is_square, xgcd

__all__ = [
    "S",
    "T",
    "U",
    "IDENT",
    "mat_mul",
    "mat_neg",
    "mat_det",
    "mat_trace",
    "mat_inv_unimodular",
    "proj_canonical",
    "quad_form_of",
    "form_disc",
    "form_content",
    "reduce_form",
    "class_label",
    "matrix_with_form",
    "epsilon",
    "stab_order",
    "conjugate",
    "in_atkin_coset",
    "sigma_det",
    "sigma_twist",
]

S = (0, -1, 1, 0)
T = (1, 1, 0, 1)
U = (1, -1, 1, 0)  # T*S, order 3 in the projective group
IDENT = (1, 0, 0, 1)


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_neg(m):
    return (-m[0], -m[1], -m[2], -m[3])


def mat_det(m):
    return m[0] * m[3] - m[1] * m[2]


def mat_trace(m):
    return m[0] + m[3]


def mat_inv_unimodular(m):
    """Inverse of a determinant-1 matrix."""
    a, b, c, d = m
    return (d, -b, -c, a)


def complete_row(c, d):
    """The determinant-1 matrix (a, b; c, d) over a coprime bottom row:
    xgcd(d, c) = (1, a, y) gives a*d - (-y)*c = 1, so b = -y."""
    g, a, y = xgcd(d, c)
    if g != 1:
        raise ValueError(f"bottom row ({c}, {d}) is not coprime")
    return (a, -y, c, d)


def proj_canonical(m):
    """Sign-normalized representative of {M, -M}: first nonzero entry > 0."""
    if mat_det(m) <= 0:
        raise ValueError("projective canonical form needs det > 0")
    for x in m:
        if x > 0:
            return m
        if x < 0:
            return mat_neg(m)
    raise ValueError("zero matrix")


def conjugate(g, m):
    """g * m * g^{-1} for unimodular g."""
    return mat_mul(mat_mul(g, m), mat_inv_unimodular(g))


# -- the level-N double cosets ------------------------------------------------
#
# A descriptor sigma = (N, ell, n) names the level-N double coset of
# determinant ell*n that in_atkin_coset cuts out; ell = 1 is the Hecke coset.
# Both routes test membership here.


def in_atkin_coset(m, N, ell, n):
    """Membership in the composed Hecke/Atkin-Lehner double coset.

    Conditions: det = ell*n, N | c, ell | trace, ell | a, (a, N/ell) = 1,
    (b, ell) = 1.  With ell = 1 this is the determinant-n Hecke double coset:
    det = n, N | c, (a, N) = 1.
    """
    a, b, c, d = m
    ellp = N // ell
    return (
        mat_det(m) == ell * n
        and c % N == 0
        and (a + d) % ell == 0
        and a % ell == 0
        and math.gcd(a, ellp) == 1
        and math.gcd(b, ell) == 1
    )


def sigma_det(sigma):
    return sigma[1] * sigma[2]


def sigma_twist(sigma, m):
    """Character argument of a member m: its top-left entry for a Hecke
    coset, 1 for a composed one (which carries the trivial character)."""
    return m[0] if sigma[1] == 1 else 1


def quad_form_of(m):
    """Form [c, d-a, -b] attached to (a, b; c, d); disc = tr^2 - 4 det."""
    a, b, c, d = m
    return (c, d - a, -b)


def form_disc(q):
    A, B, C = q
    return B * B - 4 * A * C


def form_content(q):
    """gcd of the coefficients; 0 for the zero form."""
    return math.gcd(math.gcd(q[0], q[1]), q[2])


def form_neg(q):
    return (-q[0], -q[1], -q[2])


def _form_apply(q, g):
    """Q composed with the column substitution by g: Q'(v) = Q(g v)."""
    A, B, C = q
    a, b, c, d = g
    return (
        A * a * a + B * a * c + C * c * c,
        2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d,
        A * b * b + B * b * d + C * d * d,
    )


def _reduce_posdef(q):
    """Gauss-reduced positive definite form: |B| <= A <= C, B >= 0 on ties."""
    A, B, C = q
    D = form_disc(q)
    while True:
        if C < A:
            A, B, C = C, -B, A
            continue
        if B > A or B <= -A:
            B = A - (A - B) % (2 * A)  # shift into (-A, A]
            C = (B * B - D) // (4 * A)
            continue
        break
    if B < 0 and A == C:
        B = -B
    return (A, B, C)


def _indefinite_step(q, s):
    """One reduction step for disc > 0: (A,B,C) -> (C, r, (r^2-D)/(4C))."""
    A, B, C = q
    D = form_disc(q)
    ac = abs(C)
    if ac > s:
        # r = -B mod 2|C| in (-|C|, |C|]
        r = (-B) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        # r = -B mod 2|C| in (s - 2|C|, s]
        r = s - (s + B) % (2 * ac)
    return (C, r, (r * r - D) // (4 * C))


def _reduce_indefinite_cycle(q):
    """Lexicographically least form on the reduction cycle (disc > 0 nonsquare)."""
    D = form_disc(q)
    s = isqrt(D)
    limit = 4 * D + 64
    steps = 0
    seen = None
    cur = q
    if cur[2] == 0:
        raise ValueError("square discriminant passed to cycle reduction")
    # drive into the cycle
    while not (0 < cur[1] < s + 1 and s - cur[1] < 2 * abs(cur[0]) <= s + cur[1]):
        cur = _indefinite_step(cur, s)
        steps += 1
        if steps > limit:
            raise RuntimeError("indefinite reduction failed to cycle")
    # walk the full cycle
    start = cur
    best = cur
    while True:
        cur = _indefinite_step(cur, s)
        steps += 1
        if steps > limit:
            raise RuntimeError("indefinite cycle walk exceeded step bound")
        if cur == start:
            break
        if cur < best:
            best = cur
    return best


def _primitive_zero_vector(q, root_sign):
    """A primitive (x, y) with q(x, y) = 0, for square discriminant."""
    A, B, C = q
    m = isqrt(form_disc(q))
    if A == 0:
        return (1, 0)
    num = -B + root_sign * m
    den = 2 * A
    g = math.gcd(num, den)
    if g == 0:
        return (1, 0)
    x, y = num // g, den // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return (x, y)


def _square_key_via_root(q1, m, root_sign):
    """Class key k of a primitive square-disc form, shape [k, m, 0]."""
    x0, y0 = _primitive_zero_vector(q1, root_sign)
    # complete (x0, y0) to a unimodular matrix with it as first column
    g, p, qq = xgcd(x0, y0)
    if g != 1:
        raise ArithmeticError(f"zero vector {(x0, y0)} of {q1} is not primitive")
    # x0*u_y - y0*u_x = 1 with u = (u_x, u_y)
    u = (-qq, p)
    gmat = (x0, u[0], y0, u[1])
    if gmat[0] * gmat[3] - gmat[1] * gmat[2] != 1:
        raise ArithmeticError(f"completion {gmat} of {(x0, y0)} is not unimodular")
    A2, B2, C2 = _form_apply(q1, gmat)
    if A2 != 0 or abs(B2) != m:
        raise ArithmeticError(f"{q1} moved to {(A2, B2, C2)}, not to the shape [0, +-{m}, C]")
    if B2 == -m:
        # S-flip [0,-m,C] -> [C, m, 0]
        return C2 % m
    # [0, m, C]: completed against the other zero line gives k = C^{-1} mod m
    g, inv, _ = xgcd(C2 % m, m)
    if g != 1:
        raise ArithmeticError(f"{C2} is not a unit mod {m} for the primitive form {q1}")
    return inv % m


def reduce_form(q):
    """Canonical key of the proper-equivalence class of q (any discriminant).

    Key layouts (first element tags the discriminant type):
      ('zero',)                      zero form
      ('par', sign, content)        disc 0, q = sign*content*(px+qy)^2
      ('def', sign, A, B, C)        disc < 0, Gauss-reduced positive side
      ('sq', content, k, m')        disc = (content*m')^2 > 0, class [k, m', 0]
      ('indef', A, B, C)            disc > 0 nonsquare, lex-min cycle form
    """
    if q == (0, 0, 0):
        return ("zero",)
    D = form_disc(q)
    g = form_content(q)
    if D == 0:
        sign = 1
        for coef in q:
            if coef:
                sign = 1 if coef > 0 else -1
                break
        return ("par", sign, g)
    if D < 0:
        sign = 1 if q[0] > 0 else -1
        red = _reduce_posdef(q if sign == 1 else form_neg(q))
        return ("def", sign, *red)
    if is_square(D):
        q1 = (q[0] // g, q[1] // g, q[2] // g)
        m = isqrt(D) // g
        k1 = _square_key_via_root(q1, m, +1)
        k2 = _square_key_via_root(q1, m, -1)
        return ("sq", g, min(k1, k2), m)
    return ("indef", *_reduce_indefinite_cycle(q))


def class_label(m):
    """Complete invariant of the projective unimodular conjugacy class.

    Two positive-determinant matrices get equal labels iff they are
    conjugate in the sign-quotient; built from (trace, form class) with the
    normalization (t, Q) ~ (-t, -Q) and a lexicographic tie-break at t = 0.
    """
    n = mat_det(m)
    if n <= 0:
        raise ValueError("class_label needs det > 0")
    t = mat_trace(m)
    q = quad_form_of(m)
    g = form_content(q)
    if t > 0:
        key = reduce_form(q)
    elif t < 0:
        t = -t
        key = reduce_form(form_neg(q))
    else:
        key = min(reduce_form(q), reduce_form(form_neg(q)))
    return (n, t, key, g)


def matrix_with_form(t, q):
    """The unique matrix with trace t, form q (t^2 - disc(q) = 4 det).

    Inverse of quad_form_of at fixed trace: ((t-B)/2, -C; A, (t+B)/2).
    """
    A, B, C = q
    if (t - B) % 2:
        raise ValueError("parity mismatch: t and B must be congruent mod 2")
    return ((t - B) // 2, -C, A, (t + B) // 2)


def epsilon(m):
    """Conjugacy-class weight: 1/6 on scalars, 0 where the stabilizer is
    infinite, else +-1/stab_order(m) with sign + for positive discriminant."""
    stab = stab_order(m)
    if quad_form_of(m) == (0, 0, 0):
        return QQ(1, 6)
    if stab is None:
        return QQ(0)
    return QQ(1 if mat_trace(m) ** 2 > 4 * mat_det(m) else -1, stab)


def stab_order(m):
    """Order of the projective conjugation stabilizer; None means infinite."""
    n = mat_det(m)
    if n <= 0:
        raise ValueError("stab_order needs det > 0")
    q = quad_form_of(m)
    if q == (0, 0, 0):
        return None
    D = mat_trace(m) ** 2 - 4 * n
    if D == 0:
        return None
    if D > 0:
        return 1 if is_square(D) else None
    g = form_content(q)
    d0 = D // (g * g)
    if d0 == -3:
        return 3
    if d0 == -4:
        return 2
    return 1
