"""Spans around the public functions of each z2top layer, installed from outside.

Each wrapper replaces the module or class attribute that callers look up at
call time, so the program's sources stay untouched.  A wrapper records only
while its tracer is active, which keeps the benchmark's own checks out of
the trace.  Calls are synchronous on one thread, so spans nest: a span's
children are the spans opened while it was the innermost open one.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median

from stats import self_time

RHS_SPANS = ("dynamics.omega_rhs", "zktop.zk_rhs", "reduction.scalar_rhs")
#: Spans whose tracemalloc peak is recorded while tracemalloc runs.
MEMORY_SPANS = ("dynamics.create", "invariants.drift_report")
#: Spans where a BranchError is raised (and counted) rather than passed on.
BRANCH_SPANS = ("reduction.scalar_rhs", "reduction.reconstruct_a")

# Per-layer metrics, by how each is derived from the spans of one op.
#: Median over ops of the op's total time inside the span.
SPAN_TIME = {
    "cli.main_s": "cli.main",
    "cli.atomic_write_s": "cli.atomic_write",
    "dynamics.create_s": "dynamics.create",
    "dynamics.to_csv_s": "dynamics.to_csv",
    "dynamics.trajectory_json_s": "dynamics.trajectory_json",
    "geometry.lines_s": "geometry.lines",
    "geometry.hyperplanes_s": "geometry.hyperplanes",
    "geometry.geometry_json_s": "geometry.geometry_json",
    "geometry.incidence_dot_s": "geometry.incidence_dot",
    "geometry.classic_line_set_s": "geometry.classic_line_set",
    "geometry.search_s": "geometry.search",
    "integrate.adaptive_rk_s": "integrate.adaptive_rk",
    "invariants.drift_report_s": "invariants.drift_report",
    "reduction.compare_routes_s": "reduction.compare_routes",
    "reduction.compute_reduction_s": "reduction.compute_reduction",
    "reduction.integrate_R_s": "reduction.integrate_R",
    "reduction.reconstruct_a_s": "reduction.reconstruct_a",
    "zktop.drift_report_s": "zktop.drift_report",
}
#: Median over ops of the op's mean time per call of the span.
PER_CALL_TIME = {
    "dynamics.omega_rhs_s": "dynamics.omega_rhs",
    "zktop.zk_rhs_s": "zktop.zk_rhs",
}
#: Median over ops of the span's time minus the union of its child spans.
SELF_TIME = {
    "cli.self_s": "cli.main",
    "integrate.self_s": "integrate.adaptive_rk",
}
#: Calls summed over the fixed op set.
CALLS = {
    "dynamics.omega_rhs_calls": ("dynamics.omega_rhs",),
    "integrate.rhs_calls": RHS_SPANS,
    "reduction.scalar_rhs_calls": ("reduction.scalar_rhs",),
    "zktop.rhs_calls": ("zktop.zk_rhs",),
    "geometry.search_calls": ("geometry.search",),
}
#: Counters summed over the fixed op set.
COUNTERS = {
    "integrate.samples": ("samples", "count"),
    "cli.bytes_written": ("bytes", "B"),
    "reduction.branch_errors": ("branch_errors", "count"),
    "invariants.nonfinite_drifts": ("nonfinite_drifts", "count"),
}
#: Largest tracemalloc peak inside the span, in MB, over the memory probe.
PEAKS = {
    "dynamics.create_peak_alloc_mb": "dynamics.create",
    "invariants.drift_peak_alloc_mb": "invariants.drift_report",
}
OVERHEAD = "trace.overhead_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in (*SPAN_TIME, *PER_CALL_TIME, *SELF_TIME, OVERHEAD)}
    units.update({name: "count" for name in CALLS})
    units.update({name: unit for name, (_, unit) in COUNTERS.items()})
    units.update({name: "MB" for name in PEAKS})
    return units


def _binding_plan(z) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for each binding the program calls through."""
    plan = [
        (z.cli, "main", "cli.main"),
        (z.cli, "atomic_write", "cli.atomic_write"),
        (z.cli, "trajectory_json", "dynamics.trajectory_json"),
        (z.cli, "drift_report", "invariants.drift_report"),
        (z.cli, "compare_routes", "reduction.compare_routes"),
        (z.cli, "zk_drift_report", "zktop.drift_report"),
        (z.dynamics.TopSystem, "create", "dynamics.create"),
        (z.dynamics.Trajectory, "to_csv", "dynamics.to_csv"),
        (z.dynamics, "omega_rhs", "dynamics.omega_rhs"),
        (z.zktop, "zk_rhs", "zktop.zk_rhs"),
        (z.reduction, "compute_reduction", "reduction.compute_reduction"),
        (z.reduction, "integrate_R", "reduction.integrate_R"),
        (z.reduction, "scalar_rhs", "reduction.scalar_rhs"),
        (z.reduction, "reconstruct_a", "reduction.reconstruct_a"),
        (z.geometry, "find_collineation", "geometry.search"),
        (z.geometry, "find_hyperplane_collineation", "geometry.search"),
    ]
    plan += [(m, "adaptive_rk", "integrate.adaptive_rk") for m in (z.dynamics, z.reduction, z.zktop)]
    plan += [
        (z.geometry, name, f"geometry.{name}")
        for name in ("lines", "hyperplanes", "geometry_json", "incidence_dot", "classic_line_set")
    ]
    return plan


@dataclass
class Span:
    name: str
    parent: int  # index into the op's span list; -1 for the op's root
    start: float = 0.0
    end: float = 0.0


@dataclass
class OpTrace:
    """Per-op totals of the spans, keyed by span name."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    total: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    own: dict[str, float] = field(default_factory=lambda: defaultdict(float))  # self time
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    roots: int = 0  # spans with no parent; one per op
    root_s: float = 0.0
    coverage_gap_s: float = 0.0  # sum of all self times minus the root's duration

    def signature(self) -> tuple:
        """The deterministic part of the trace: call counts and counters."""
        return tuple(sorted(self.calls.items())), tuple(sorted(self.counters.items()))


class Tracer:
    def __init__(self, branch_error: type) -> None:
        self.active = False
        self._branch_error = branch_error
        self._spans: list[Span] = []
        self._open: list[int] = []
        self._counters: dict[str, int] = defaultdict(int)
        self._written: list[str] = []
        self.peaks: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def install(self, z) -> None:
        for owner, attr, name in _binding_plan(z):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        memory = name in MEMORY_SPANS
        branch = name in BRANCH_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self._spans)
            span = Span(name, self._open[-1] if self._open else -1)
            self._spans.append(span)
            self._open.append(index)
            measure = memory and tracemalloc.is_tracing()
            if measure:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._branch_error:
                if branch:
                    self._counters["branch_errors"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.peaks[name] = max(self.peaks[name], peak)
            if name == "integrate.adaptive_rk":
                self._counters["samples"] += len(result[0])
            elif name == "cli.atomic_write":
                self._written.append(args[0] if args else kwargs["path"])
            return result

        return wrapper

    def take_op(self) -> OpTrace:
        """Fold the spans recorded since the last call into one op's totals."""
        spans, self._spans = self._spans, []
        counters, self._counters = self._counters, defaultdict(int)
        written, self._written = self._written, []
        counters["bytes"] = sum(os.path.getsize(path) for path in written)
        if self._open:
            raise RuntimeError("an op ended with spans still open")
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in spans:
            if s.parent >= 0:
                children[s.parent].append((s.start, s.end))
        out = OpTrace()
        out.counters.update(counters)
        for i, s in enumerate(spans):
            out.calls[s.name] += 1
            out.total[s.name] += s.end - s.start
            out.own[s.name] += self_time(s.start, s.end, children[i])
            if s.parent < 0:
                out.roots += 1
                out.root_s += s.end - s.start
        out.coverage_gap_s = sum(out.own.values()) - out.root_s
        return out


def layer_metrics(traces: list[OpTrace], fixed: list[OpTrace], peaks: dict[str, int],
                  overhead_s: float) -> dict[str, float]:
    """Every per-layer metric: times over all traced ops, counts over the fixed op set."""

    def med(values: list[float]) -> float:
        return median(values) if values else 0.0

    out: dict[str, float] = {}
    for metric, span in SPAN_TIME.items():
        out[metric] = med([t.total[span] for t in traces if t.calls.get(span)])
    for metric, span in PER_CALL_TIME.items():
        out[metric] = med([t.total[span] / t.calls[span] for t in traces if t.calls.get(span)])
    for metric, span in SELF_TIME.items():
        out[metric] = med([t.own[span] for t in traces if t.calls.get(span)])
    for metric, spans in CALLS.items():
        out[metric] = sum(t.calls.get(s, 0) for t in fixed for s in spans)
    for metric, (counter, _) in COUNTERS.items():
        out[metric] = sum(t.counters.get(counter, 0) for t in fixed)
    for metric, span in PEAKS.items():
        out[metric] = peaks.get(span, 0) / 2**20
    out[OVERHEAD] = overhead_s
    return out


def layer_rows(traces: list[tuple[tuple[str, int], OpTrace]]) -> list[dict]:
    """Median inclusive time of each span name per op size, with its repetitions."""
    groups: dict[tuple[str, str, int], list[float]] = defaultdict(list)
    for (dim, size), trace in traces:
        for name, total in trace.total.items():
            groups[(name, dim, size)].append(total)
    return [
        {"layer": name, dim: size, "median_s": median(values), "reps": len(values)}
        for (name, dim, size), values in sorted(groups.items())
    ]
