"""Span tracer that wraps trace_kit's public functions from outside the package.

`install()` replaces each wrapped function everywhere it is bound: on its
own module, on every trace_kit module that imported it with
`from .x import f`, and on the class for methods.  A call into a layer from
code of another layer opens a span (name, start, end, parent); a call
inside the same layer is only counted, so one span covers a layer's nested
work.  A span without child spans is merged with its siblings of the same
name into one record carrying their count and summed duration, which keeps
memory bounded on hot leaf calls (cyclotomic additions, divisor lists).

Spans stay in memory and are written out by `finish()`; `summarize()`
computes busy and self time per layer from the written records.
"""

import itertools
import json
import sys
from time import perf_counter_ns

# Functions wrapped per layer (= module of trace_kit).  Where a module's
# __all__ is used, only its plain functions are taken.
EXPLICIT = {
    "arith": ("divisors", "factorize", "gegenbauer"),
    "class_numbers": ("hurwitz_H", "h0", "precompute"),
    "dirichlet": (
        "enumerate_characters",
        "trivial_character",
        "cyclotomic_poly",
        "CycloNum.__add__",
        "CycloNum.__radd__",
        "CycloNum.__sub__",
        "CycloNum.__rsub__",
        "CycloNum.__mul__",
        "CycloNum.__rmul__",
        "CycloNum.__truediv__",
        "DirichletChar.__call__",
        "DirichletChar.eval_mod",
        "DirichletChar.value_exponent",
    ),
    "hecke_operator": ("build_Tn", "build_Tn_infty", "verify_operator"),
    "period_oracle": ("sigma_block_map",),
    "cli": ("main",),
}
FROM_ALL = ("local_counts", "cusp_terms", "trace_formulas", "period_oracle")
CYCLO_OPS = {f"dirichlet.{op}" for op in EXPLICIT["dirichlet"] if op.startswith("CycloNum.")}
CHAR_EVALS = {f"dirichlet.DirichletChar.{op}" for op in ("__call__", "eval_mod", "value_exponent")}


class Tracer:
    def __init__(self):
        # an open frame: [name, layer, id, start_ns, leaf aggregates or None]
        self.stack = [["bench", "bench", 0, 0, None]]
        self.records = []  # (id, name, layer, start_ns, end_ns, parent id, count, total_ns)
        self.ids = itertools.count(1)
        self.counts = {}
        self.distinct_D = set()
        self.residues_scanned = 0
        self.support = 0
        self.candidates = 0
        self.solution_set = None  # the unwrapped lru_cache, for its hit counts

    def wrap(self, layer, name, fn):
        stack, records, ids, counts = self.stack, self.records, self.ids, self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            parent = stack[-1]
            if parent[1] == layer:
                return fn(*args, **kwargs)
            frame = [name, layer, next(ids), 0, None]
            stack.append(frame)
            frame[3] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                aggs = parent[4]
                if aggs is None:
                    aggs = parent[4] = {}
                start = frame[3]
                if frame[4] is None:
                    agg = aggs.get(name)
                    if agg is None:
                        aggs[name] = [layer, start, end, 1, end - start]
                    else:
                        agg[2] = end
                        agg[3] += 1
                        agg[4] += end - start
                else:
                    fid = frame[2]
                    for lname, (llayer, ls, le, lc, ld) in frame[4].items():
                        records.append((next(ids), lname, llayer, ls, le, fid, lc, ld))
                    records.append((fid, name, layer, start, end, parent[2], 1, end - start))

        return wrapper

    # -- counters that need the arguments or the result ------------------------------

    def _count_distinct(self, tag, fn):
        seen = self.distinct_D

        def counted(D):
            seen.add((tag, D))
            return fn(D)

        return counted

    def _count_scan(self, fn):
        def counted(N, u, t, n):
            misses = fn.cache_info().misses
            out = fn(N, u, t, n)
            if fn.cache_info().misses != misses and N % u == 0 and (t * t - 4 * n) % (u * u) == 0:
                self.residues_scanned += N
            return out

        return counted

    def _count_support(self, fn):
        def counted(*args, **kwargs):
            misses = fn.cache_info().misses
            out = fn(*args, **kwargs)
            if fn.cache_info().misses != misses:
                self.support += len(out)
            return out

        return counted

    def _count_candidates(self, fn):
        def counted(n, bound):
            k = 0
            try:
                for m in fn(n, bound):
                    k += 1
                    yield m
            finally:
                self.candidates += k

        return counted

    # -- installation --------------------------------------------------------------------

    def install(self):
        import trace_kit
        import trace_kit.cli  # noqa: F401  (not imported by the package itself)

        modules = [m for name, m in sys.modules.items() if name == "trace_kit" or name.startswith("trace_kit.")]
        for layer in sorted(set(EXPLICIT) | set(FROM_ALL)):
            mod = sys.modules[f"trace_kit.{layer}"]
            names = list(EXPLICIT.get(layer, ()))
            if layer in FROM_ALL:
                names += [n for n in mod.__all__ if callable(getattr(mod, n)) and not isinstance(getattr(mod, n), type)]
            for attr in names:
                owner_name, _, meth = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = vars(owner)[meth]
                inner = fn
                if attr in ("hurwitz_H", "h0"):
                    inner = self._count_distinct(attr, fn)
                elif attr == "solution_set":
                    self.solution_set = fn
                    inner = self._count_scan(fn)
                elif attr == "build_Tn":
                    inner = self._count_support(fn)
                wrapped = self.wrap(layer, f"{layer}.{attr}", inner)
                if owner_name:
                    setattr(owner, meth, wrapped)
                    continue
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)
        det = sys.modules["trace_kit.hecke_operator"].det_matrices
        sys.modules["trace_kit.hecke_operator"].det_matrices = self._count_candidates(det)

    # -- output ----------------------------------------------------------------------------

    def finish(self, path):
        """Close the root frame and write every record and counter to `path`."""
        root = self.stack[0]
        for lname, (llayer, ls, le, lc, ld) in (root[4] or {}).items():
            self.records.append((next(self.ids), lname, llayer, ls, le, 0, lc, ld))
        root[4] = None
        info = self.solution_set.cache_info() if self.solution_set else None
        out = {
            "records": self.records,
            "counts": self.counts,
            "distinct_D": len(self.distinct_D),
            "residues_scanned": self.residues_scanned,
            "support": self.support,
            "candidates": self.candidates,
            "solution_set_hits": info.hits if info else 0,
            "solution_set_misses": info.misses if info else 0,
        }
        with open(path, "w") as fh:
            json.dump(out, fh, separators=(",", ":"))


def summarize(paths):
    """Per-layer busy time, self time, span counts and counters over span files.

    busy: summed duration of spans with no ancestor span of the same layer.
    self: summed duration of each span minus the durations of its child spans.
    """
    busy, self_ns, spans = {}, {}, {}
    name_ns = {}
    totals = {"distinct_D": 0, "residues_scanned": 0, "support": 0, "candidates": 0,
              "solution_set_hits": 0, "solution_set_misses": 0}
    counts = {}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for key in totals:
            totals[key] += data[key]
        for name, c in data["counts"].items():
            counts[name] = counts.get(name, 0) + c
        recs = {r[0]: r for r in data["records"]}
        child_ns = {}
        for r in data["records"]:
            child_ns[r[5]] = child_ns.get(r[5], 0) + r[7]
        for rid, name, layer, _s, _e, parent, count, dur in data["records"]:
            self_ns[layer] = self_ns.get(layer, 0) + dur - child_ns.get(rid, 0)
            spans[layer] = spans.get(layer, 0) + count
            name_ns[name] = name_ns.get(name, 0) + dur
            p = recs.get(parent)
            while p is not None and p[2] != layer:
                p = recs.get(p[5])
            if p is None:
                busy[layer] = busy.get(layer, 0) + dur
    return {
        "busy_s": {k: v / 1e9 for k, v in busy.items()},
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "spans": spans,
        "name_s": {k: v / 1e9 for k, v in name_ns.items()},
        "counts": counts,
        **totals,
    }
