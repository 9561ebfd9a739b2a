"""Conjugacy-class weights, closed and direct, for the tests that check the
two routes' local counts against each other.

c_class_closed is the closed conjugacy-class weight, and c_atkin_closed the
one at level N/ell; c_class_direct and c_atkin_direct sum the same weights
over the fixed points of the double-coset action on P^1(Z/N).
"""

import math

from trace_kit.arith import validate_query
from trace_kit.dirichlet import trivial_character
from trace_kit.local_counts import B_counts
from trace_kit.matrix_forms import form_content, mat_det, mat_trace, quad_form_of
from trace_kit.period_oracle import _fixed_point_args


def c_class_closed(N, chi, m):
    """Class weight via the closed form B(gcd(content, N), trace, det)."""
    n = mat_det(m)
    validate_query(N, chi, n=n)
    # content 0 (scalars): gcd(0, N) = N
    return chi.value(B_counts(N, chi, math.gcd(form_content(quad_form_of(m)), N), mat_trace(m), n))


def c_atkin_closed(N, ell, m):
    """Atkin-Lehner composed class weight, closed form (integer valued):
    delta(gcd(ell, content), 1) times the trivial-character class weight at
    level N/ell, when ell divides the trace."""
    det = mat_det(m)
    validate_query(N, n=det, ell=ell)
    if det % ell:
        raise ValueError("determinant must be divisible by ell")
    if mat_trace(m) % ell or math.gcd(ell, form_content(quad_form_of(m))) != 1:
        return 0
    return int(c_class_closed(N // ell, trivial_character(N // ell), m).as_rational())


def c_class_direct(N, chi, m):
    """Class weight by direct summation over P^1(Z/N): chi at the fixed
    points of m in the determinant-det(m) Hecke coset."""
    det = mat_det(m)
    validate_query(N, chi, n=det)
    return chi.total(_fixed_point_args((N, 1, det), m))


def c_atkin_direct(N, ell, m):
    """Atkin-Lehner class weight: the fixed points of m in the composed
    coset of determinant det(m)."""
    det = mat_det(m)
    validate_query(N, n=det, ell=ell)
    if det % ell:
        raise ValueError("determinant must be divisible by ell")
    return len(_fixed_point_args((N, ell, det // ell), m))
