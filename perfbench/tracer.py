"""Per-layer spans recorded from outside the program.

The tracer replaces each listed weyl4 function, in every module that binds
it, with a wrapper that records calls, inclusive time and self time (span
minus the time of the wrapped calls it made).  Spans are aggregated in
memory per function; nothing is written while a run is measured.

Metric names are ``<module>.<function>.<quantity>``.  ``_per_pt`` divides
by the point contexts built (``conditions.point_context`` calls),
``_per_node`` by the quadrature nodes (or points) the calls asked for,
``_per_call`` by top-level calls.  ``ms_`` is inclusive time, ``self_ms_`` self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from math import prod

import numpy as np

ALL = frozenset({"check_o4", "classify_o2", "integrate_sak"})
CLI = frozenset({"check_o4", "classify_o2"})
ORDER4 = frozenset({"check_o4", "integrate_sak"})
INTEGRATE = frozenset({"integrate_sak"})
CHECK = frozenset({"check_o4"})


class TraceError(RuntimeError):
    """The tracer could not attach, or recorded an implausible trace."""


@dataclass(frozen=True)
class Target:
    module: str        # weyl4 submodule that defines the function
    name: str          # attribute path in that module, e.g. "MetricPoint.from_jets"
    quantities: tuple
    reach: frozenset   # workloads that must call it at least once
    bindings: tuple = ()  # other modules that import the function by name
    metric: str = ""   # metric prefix when it differs from "<module>.<name>"

    @property
    def prefix(self) -> str:
        return self.metric or f"{self.module}.{self.name}"


PT = ("calls_per_pt", "ms_per_pt")
COND = ("conditions",)

# Which end-to-end metric each layer should move, and on which workload, is
# recorded in ``reach``: every target moves points_per_s on the workloads
# that reach it; cli.main, run_suite and builtin_manifolds move call_p50_s.
TARGETS = (
    Target("exprjet", "jmul", ("calls_per_pt", "products_per_pt", "mbytes_per_pt", "ms_per_pt"),
           ALL, ("curvature", "selfdual", "hermitian")),
    Target("exprjet", "jmatinv", ("ms_per_pt",), ALL, ("pointgeom",)),
    Target("exprjet", "eval_jet", PT, ALL),
    Target("pointgeom", "MetricPoint.from_jets", ("ms_per_pt",), ALL),
    Target("pointgeom", "build_j_frame", ("ms_per_pt",), ALL, COND),
    Target("curvature", "curvature_bundle", ("ms_per_pt",), ALL, COND),
    Target("selfdual", "wplus_norm2_jet", PT, ALL, COND),
    Target("selfdual", "wplus_matrix", PT, ALL, COND),
    Target("selfdual", "lambda2_split", PT, ALL, COND),
    Target("selfdual", "delta_wpm", PT, ORDER4, COND),
    Target("selfdual", "nabla_w_sd_matrices", PT, ORDER4, COND),
    Target("hermitian", "AcsPoint.from_jets", PT, ALL),
    Target("hermitian", "star_ricci_family", PT, ALL, COND),
    Target("hermitian", "nabla_j_data", PT, ALL, COND),
    Target("hermitian", "projections_p1p2", PT, ALL, COND),
    Target("hermitian", "lambda_jet", PT, ORDER4, COND),
    Target("hermitian", "q_j_integrand", PT, INTEGRATE, COND),
    Target("catalog", "ManifoldSpec.metric_point", ("self_ms_per_pt",), ALL,
           metric="catalog.metric_point"),
    Target("catalog", "ManifoldSpec.j_jets", ("ms_per_pt",), ALL, metric="catalog.j_jets"),
    Target("catalog", "ManifoldSpec.volume_density", ("ms_per_call",), INTEGRATE,
           metric="catalog.volume_density"),
    Target("catalog", "builtin_manifolds", ("calls_per_call",), CLI, ("cli",)),
    Target("conditions", "point_context", ("self_ms_per_pt",), ALL),
    Target("conditions", "run_suite", ("self_ms_per_pt",), CHECK, ("cli",)),
    Target("conditions", "integrate_density", ("self_ms_per_node",), INTEGRATE, ("cli",)),
    Target("conditions", "evaluate_integrand", ("calls_per_node",), INTEGRATE, ("cli",)),
    Target("conditions", "check_integral_formulas", ("self_ms_per_call",), INTEGRATE, ("cli",)),
    Target("cli", "main", ("self_ms_per_call",), CLI),
)

SUMMARY = (("trace.overhead_ratio", "ratio", "lower"), ("trace.self_coverage", "ratio", "higher"))

UNITS = {"calls": "count", "products": "count", "mbytes": "MB", "ms": "ms"}


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for t in TARGETS:
        for q in t.quantities:
            unit = UNITS[q.removeprefix("self_").split("_per_")[0]]
            specs.append((f"{t.prefix}.{q}", unit, "lower"))
    return specs + list(SUMMARY)


class Tracer:
    """Context manager: wraps every target on entry, restores on exit."""

    def __init__(self):
        self.stats = {t.prefix: [0, 0.0, 0.0] for t in TARGETS}  # calls, total s, self s
        self.jmul_shapes: dict = {}
        self._stack: list = []
        self._saved: list = []  # (owner, attr, original)

    # -- attaching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for t in TARGETS:
                self._attach(t)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _attach(self, t: Target) -> None:
        home = importlib.import_module(f"weyl4.{t.module}")
        *outer, attr = t.name.split(".")
        owner = home
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            raise TraceError(f"weyl4.{t.module} has no {t.name}")
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = self._wrap(func, self.stats[t.prefix], t.name == "jmul")
        self._patch(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        if outer:
            return
        for mod in t.bindings:
            bound = importlib.import_module(f"weyl4.{mod}")
            if vars(bound).get(attr) is not func:
                raise TraceError(f"weyl4.{mod} does not bind {t.module}.{t.name}")
        # Patch every binding, listed or not, so that no call escapes the span.
        for name, mod in list(sys.modules.items()):
            if name == "weyl4" or name.startswith("weyl4."):
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every original back, last patch first, and verify it."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise TraceError(f"could not restore {owner.__name__}.{attr}")

    def _wrap(self, func, stat: list, count_shapes: bool):
        stack = self._stack
        clock = time.perf_counter
        shapes = self.jmul_shapes

        def span(*args, **kwargs):
            if count_shapes:
                key = (args[0].shape, args[1].shape, args[2])
                shapes[key] = shapes.get(key, 0) + 1
            stack.append(0.0)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt

        return functools.update_wrapper(span, func)

    # -- results -----------------------------------------------------------

    def check_reached(self, workload: str) -> None:
        missed = [t.prefix for t in TARGETS if workload in t.reach and self.stats[t.prefix][0] == 0]
        if missed:
            raise TraceError(f"{workload}: no calls recorded for {', '.join(missed)}")

    def self_seconds(self) -> float:
        return sum(s[2] for s in self.stats.values())

    def _jmul_work(self) -> tuple:
        """Scalar products and float64 megabytes moved by all jmul calls,
        from operand shapes: both gathered operands, their product and the
        scattered result."""
        from weyl4.exprjet import tables

        products = mbytes = 0.0
        for (a, b, order), n in self.jmul_shapes.items():
            pairs = len(tables(order).mul_ia)
            lead = prod(np.broadcast_shapes(a[:-1], b[:-1]))
            elems = prod(a[:-1]) * pairs + prod(b[:-1]) * pairs + lead * pairs + lead * tables(order).ncoef
            products += n * lead * pairs
            mbytes += n * 8.0 * elems / 1e6
        return products, mbytes

    def metrics(self, points: int, nodes: int, calls: int) -> dict:
        per = {"pt": max(points, 1), "node": max(nodes, 1), "call": max(calls, 1)}
        products, mbytes = self._jmul_work()
        out = {}
        for t in TARGETS:
            n, total, self_s = self.stats[t.prefix]
            for q in t.quantities:
                what, base = q.rsplit("_per_", 1)
                value = {
                    "calls": n,
                    "ms": total * 1e3,
                    "self_ms": self_s * 1e3,
                    "products": products,
                    "mbytes": mbytes,
                }[what]
                out[f"{t.prefix}.{q}"] = value / per[base]
        return out

