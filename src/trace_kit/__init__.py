"""Exact traces of Hecke and Atkin-Lehner operators on modular forms for the
level-N congruence group, cross-verified by a universal group-ring operator
and exact period-polynomial linear algebra.

The period side (`hecke_operator`, `period_oracle`) and the suite
(`verification`, home of `run_suite`) are in `sys.modules` once the package
is imported, but each module's code runs on the first read of one of its
attributes (`importlib.util.LazyLoader`).  Their names in `__all__` are read
through the module `__getattr__` (PEP 562).  So a program that only computes
traces, the `trace` command among them, compiles and runs the closed route
alone.
"""

import importlib.util
import sys

from .arith import QQ, gegenbauer, index_phi1, sigma1_N
from .class_numbers import h0, hurwitz_H
from .dirichlet import CycloNum, DirichletChar, enumerate_characters, trivial_character
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

# public name -> the submodule that defines it, loaded on first use
_LAZY = {
    "GroupRingElem": "hecke_operator",
    "build_Tn": "hecke_operator",
    "build_Tn_infty": "hecke_operator",
    "verify_operator": "hecke_operator",
    "atkin_coset_desc": "period_oracle",
    "dim_period_space": "period_oracle",
    "hecke_coset_desc": "period_oracle",
    "trace_coboundary": "period_oracle",
    "trace_on_W": "period_oracle",
    "run_suite": "verification",
}

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


def _register_lazy_modules():
    """Put each module behind _LAZY in sys.modules, and on the package, with
    its code not yet run: LazyLoader runs it on the first attribute read."""
    for name in sorted(set(_LAZY.values())):
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[name] = module


_register_lazy_modules()


def __getattr__(name):
    if name in _LAZY:
        return getattr(sys.modules[f"{__name__}.{_LAZY[name]}"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
