"""In-memory spans and probe timers for the traced run, and their per-layer sums.

A span is (name, start, end, parent, op id).  Each replayed op opens a
root span ``op.<kind>``; the layer calls it makes are its children.
Probes run in a pass of their own and never open spans, so they stay out
of ``trace.coverage``.
"""

from __future__ import annotations

import contextlib
import os
import platform
import statistics
import time
from collections import defaultdict

import numpy as np

# Per-layer metric names by source.  Span sums are seconds per pass; counts
# are summed over a pass.
SPAN_METRICS = [
    "dessin.parse", "dessin.topology", "dessin.automorphisms", "dessin.classify",
    "finite_groups.closure", "finite_groups.well_defined", "finite_groups.so3_check",
    "metrics.build", "metrics.grid_rows", "metrics.invariance_defect",
    "metrics.metric_distance", "metrics.grid_format",
    "schwarz_christoffel.boundary",
] + [f"verification.check_{k:02d}" for k in range(1, 11)]
PER_POINT_METRICS = ["schwarz_christoffel.forward", "schwarz_christoffel.inverse",
                     "schwarz_christoffel.butterfly"]
COUNT_METRICS = ["dessin.darts", "dessin.aut_order", "finite_groups.order",
                 "finite_groups.input_elements", "metrics.grid_bytes",
                 "schwarz_christoffel.points"]
PROBE_METRICS = ["finite_groups.classify_s", "finite_groups.orbit_analysis_s",
                 "finite_groups.unitarize_s", "metrics.density_s", "metrics.curvature_s"]


PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    **{f"{name}_us": "us" for name in PER_POINT_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    **{name: "s" for name in PROBE_METRICS},
    "moebius.element_order_us": "us",
    "metrics.density_ns_per_eval": "ns",
    "metrics.curvature_ns_per_eval": "ns",
    "metrics.kernel_evals": "count",
    "cli.self_s": "s", "trace.coverage": "ratio", "trace.overhead": "ratio",
}


class Tracer:
    """Spans and counts of the traced passes, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self.pass_no = 0
        self.op_id = ""

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
               self.op_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller, child of the innermost open span."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else None,
                           self.op_id])

    def count(self, name: str, value: int) -> None:
        self.counts[self.pass_no][name] += value

    def pass_sums(self) -> list[dict[str, float]]:
        """Per traced pass: op wall time, top-level span time and span sums by name."""
        passes: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, op_id in self.spans:
            sums = passes[int(op_id.split(".")[0])]
            if parent is None:
                sums["op"] += end - start
                continue
            sums[name] += end - start
            if self.spans[parent][3] is None:
                sums["top"] += end - start
        return [passes[k] for k in sorted(passes)]

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]


class Probes:
    """Accumulated probe times, call counts and kernel evaluations per name."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.evals: dict[str, int] = defaultdict(int)

    @contextlib.contextmanager
    def timed(self, name: str, calls: int = 0, evals: int = 0):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start
            self.calls[name] += calls
            self.evals[name] += evals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, probes: Probes, overhead: float) -> dict[str, float]:
    """Every per-layer metric; layers the workload never calls read 0."""
    passes = tracer.pass_sums()

    def med(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in passes)

    def count(key: str) -> float:
        return statistics.median(tracer.counts[k][key] for k in sorted(tracer.counts)) \
            if tracer.counts else 0

    out = {f"{name}_s": med(name) for name in SPAN_METRICS}
    for name in PER_POINT_METRICS:
        out[f"{name}_us"] = 1e6 * _ratio(med(name), count(f"{name}.calls"))
    for name in COUNT_METRICS:
        out[name] = count(name)
    for name in PROBE_METRICS:
        out[name] = probes.seconds[name]
    out["moebius.element_order_us"] = 1e6 * _ratio(probes.seconds["moebius.element_order_s"],
                                                   probes.calls["moebius.element_order_s"])
    for name in ("density", "curvature"):
        key = f"metrics.{name}_s"
        out[f"metrics.{name}_ns_per_eval"] = 1e9 * _ratio(probes.seconds[key], probes.evals[key])
    out["metrics.kernel_evals"] = probes.evals["metrics.density_s"] + probes.evals["metrics.curvature_s"]
    out["cli.self_s"] = statistics.median(p["op"] - p["top"] for p in passes)
    out["trace.coverage"] = statistics.median(_ratio(p["top"], p["op"]) for p in passes)
    out["trace.overhead"] = overhead
    return out


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}
