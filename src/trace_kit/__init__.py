"""Exact traces of Hecke and Atkin-Lehner operators on modular forms for the
level-N congruence group, cross-verified by a universal group-ring operator
and exact period-polynomial linear algebra.

`run_suite` is in `__all__` but its module, `verification`, is imported on
first access to the name, so a program that only computes traces (the
`trace` command among them) does not compile or load the suite.
"""

from .arith import QQ, gegenbauer, index_phi1, sigma1_N
from .class_numbers import h0, hurwitz_H
from .dirichlet import CycloNum, DirichletChar, enumerate_characters, trivial_character
from .hecke_operator import GroupRingElem, build_Tn, build_Tn_infty, verify_operator
from .period_oracle import (
    atkin_coset_desc,
    dim_period_space,
    hecke_coset_desc,
    trace_coboundary,
    trace_on_W,
)
from .trace_formulas import (
    TraceResult,
    cohen_gamma04,
    scalar_term,
    trace_atkin_full,
    trace_atkin_lehner,
    trace_hecke_cusp,
    trace_hecke_full,
    trace_series,
)

__all__ = [
    "QQ",
    "CycloNum",
    "DirichletChar",
    "GroupRingElem",
    "TraceResult",
    "atkin_coset_desc",
    "build_Tn",
    "build_Tn_infty",
    "cohen_gamma04",
    "dim_period_space",
    "enumerate_characters",
    "gegenbauer",
    "h0",
    "hecke_coset_desc",
    "hurwitz_H",
    "index_phi1",
    "run_suite",
    "scalar_term",
    "sigma1_N",
    "trace_atkin_full",
    "trace_atkin_lehner",
    "trace_coboundary",
    "trace_hecke_cusp",
    "trace_hecke_full",
    "trace_on_W",
    "trace_series",
    "trivial_character",
    "verify_operator",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name == "run_suite":
        from .verification import run_suite

        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | {"run_suite"})
