"""Benchmark of the dessins library: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload metric --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one client, closed loop: each op starts when the
previous one has returned and been checked.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
replay.  The last line of stdout is the result; the lines before it list
every failed op with its reason.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"   # op inputs and outputs, removed at exit
OUT = ROOT / ".bench_out"       # span files of traced runs
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples beyond the tail percentile
# op_p50_ms and op_tail_ms count every op's settled latency this many times
# (a nominal number of passes), so their sample count does not depend on how
# many passes fit in a run.  With more than TAIL_BEYOND copies of each op,
# the tail percentile falls on the slowest op.
NOMINAL_PASSES = 20

sys.path.insert(0, str(SRC))
try:
    import dessins
except ImportError as exc:
    sys.exit(f"error: cannot import dessins from {SRC}: {exc}")
if Path(dessins.__file__).resolve().parent.parent != SRC:
    sys.exit(f"error: dessins imported from {dessins.__file__}, not from {SRC}")

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ops import KNOWN_DEFECTS, Failure  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "ok_frac": "ratio", "peak_rss_mb": "MB"}


class Ledger:
    """Checks every outcome: contract, known defects, byte determinism, replay fidelity.

    An op is one entry of the workload's list, however many passes run it:
    ``attempted`` counts the ops and ``failed`` the ops whose outcome misses
    their contract, so both depend on the seed only and not on how many
    passes fit in a run.  An op must give the same verdict in every pass.
    """

    def __init__(self):
        self.verdicts: dict[int, Failure | None] = {}
        self.labels: dict[int, str] = {}
        self.errors: list[str] = []  # anything that makes the run incorrect
        self.digests: dict[int, str] = {}
        self.summaries: dict[int, object] = {}

    def record(self, k: int, op, out, counted: bool = True) -> None:
        if counted:
            failure = op.check(out)
            if k not in self.verdicts:
                self.verdicts[k], self.labels[k] = failure, op.label
            elif self.verdicts[k] != failure:
                self.errors.append(f"op {k} ({op.label}): verdict changed between passes")
        if k not in self.summaries:
            self.summaries[k] = op.summary(out)
        if op.deterministic:
            digest = op.digest(out)
            if self.digests.setdefault(k, digest) != digest:
                self.errors.append(f"op {k} ({op.label}): output bytes differ between runs")

    def compare_replay(self, k: int, op, summary) -> None:
        if summary != self.summaries.get(k):
            self.errors.append(f"op {k} ({op.label}): traced replay differs from the CLI run")

    @property
    def failures(self) -> list[tuple[int, str, str, str | None]]:
        """(op, label, reason, defect) of every failed op."""
        return [(k, self.labels[k], f.reason, f.defect)
                for k, f in sorted(self.verdicts.items()) if f is not None]

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.errors and all(d is not None for *_, d in self.failures)

    def report(self) -> list[str]:
        lines = [f"  failed: op {k} {label}: [{defect or 'UNEXPECTED'}] {reason}"
                 for k, label, reason, defect in self.failures]
        lines += [f"  known defect {d}: {KNOWN_DEFECTS[d]}"
                  for d in sorted({d for *_, d in self.failures if d})]
        lines += [f"  error: {e}" for e in self.errors]
        return lines


def passes_within(budget: float):
    """Pass numbers 0, 1, ... until the next pass would overrun ``budget`` seconds."""
    start = time.perf_counter()
    n = 0
    while True:
        yield n
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > budget:
            return


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at nominal machine speed, gauged by the reference kernel on both sides."""
    return seconds * reference.NOMINAL_S / (0.5 * (ref_before + ref_after))


def run_passes(ops, budget: float, ledger: Ledger) -> tuple[list[list[float]], list[list[float]]]:
    """Raw and scaled latency of every op in every pass.

    The reference kernel runs before the first op and right after every op,
    so each op is gauged on both sides.  Each outcome is checked after that.
    """
    raw_passes, scaled_passes = [], []
    for _ in passes_within(budget):
        raw, refs = [], [reference.timed()]
        for k, op in enumerate(ops):
            t0 = time.perf_counter()
            out = op.execute()
            raw.append(time.perf_counter() - t0)
            refs.append(reference.timed())
            ledger.record(k, op, out)
        raw_passes.append(raw)
        scaled_passes.append([scaled(t, refs[k], refs[k + 1]) for k, t in enumerate(raw)])
    return raw_passes, scaled_passes


def traced_passes(ops, budget: float, ledger: Ledger,
                  tracer: tracing.Tracer) -> list[list[float]]:
    """Scaled time of every replayed op in every pass, gauged as in ``run_passes``."""
    scaled_passes = []
    for tracer.pass_no in passes_within(budget):
        times, ref_before = [], reference.timed()
        for k, op in enumerate(ops):
            tracer.op_id = f"{tracer.pass_no}.{k}"
            t0 = time.perf_counter()
            with tracer.span(f"op.{op.kind}"):
                summary = op.replay(tracer)
            elapsed = time.perf_counter() - t0
            ref_after = reference.timed()
            times.append(scaled(elapsed, ref_before, ref_after))
            ref_before = ref_after
            ledger.compare_replay(k, op, summary)
        scaled_passes.append(times)
    return scaled_passes


def warm_up(workload: str, outdir: Path) -> None:
    for op in workloads.warmups(workload, outdir):
        out = op.execute()
        if out.error is not None or out.rc != 0:
            raise RuntimeError(f"warm-up {op.label} failed: {out.error or out.rc}")


def setup_once(workload: str, seed: int, outdir: str, tiny: bool = False) -> list:
    """Inputs for the seed plus one warm-up op of each kind: a run's set-up."""
    ops = workloads.build(workload, seed, Path(outdir) / "ops", tiny)
    warm_up(workload, Path(outdir) / "warmup")
    return ops


def measure_setup(workload: str, seed: int, tmp: Path, tiny: bool, repeats: int) -> float:
    """Median scaled wall time of a fresh interpreter doing ``import dessins`` and set-up."""
    times = []
    ref_before = reference.timed()
    for k in range(repeats):
        code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
                f"run.setup_once({workload!r}, {seed}, {str(tmp / f'setup{k}')!r}, {tiny})")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=150)
        elapsed = time.perf_counter() - t0
        ref_after = reference.timed()
        times.append(scaled(elapsed, ref_before, ref_after))
        ref_before = ref_after
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


def end_to_end(setup_s: float, settled: list[float], ledger: Ledger) -> dict:
    samples = [t for t in settled for _ in range(NOMINAL_PASSES)]
    tail_s, pct = tail(samples)
    print(f"  op_tail_ms is p{pct:.1f} of {len(samples)} op samples "
          f"({len(settled)} ops x {NOMINAL_PASSES} nominal passes)")
    return {"setup_s": setup_s, "wall_s": sum(settled),
            "op_p50_ms": 1e3 * statistics.median(samples), "op_tail_ms": 1e3 * tail_s,
            "ok_frac": 1.0 - ledger.failed / ledger.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(workload: str, seed: int, ops, budget: float, ledger: Ledger,
              wall: float) -> dict:
    """Traced replay, then the probe pass; spans go to a file once the run is done."""
    tracer, probes = tracing.Tracer(), tracing.Probes()
    traced = traced_passes(ops, budget, ledger, tracer)
    traced_wall = sum(statistics.median(op_times) for op_times in zip(*traced))
    for op in ops:
        if hasattr(op, "probe"):
            op.probe(probes)
    machine = tracing.machine()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "machine": machine,
                                "spans": tracer.dump()}), encoding="utf-8")
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}; machine {machine}")
    return tracing.per_layer(tracer, probes, traced_wall / wall - 1.0)


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run: set-up, timed passes, and with ``trace`` the traced replay."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=SCRATCH))
    try:
        setup_s = measure_setup(workload, seed, tmp, tiny, 1 if tiny else SETUP_REPEATS)
        ops = setup_once(workload, seed, str(tmp / "main"), tiny)
        ledger = Ledger()
        # a traced run splits its time between the untraced and the traced passes
        budget = seconds / 2 if trace else seconds
        raw_passes, passes = run_passes(ops, budget, ledger)
        # the first deterministic op once more, untimed: its bytes must not change
        k, op = next((k, op) for k, op in enumerate(ops) if op.deterministic)
        ledger.record(k, op, op.execute(), counted=False)
        # Each op's settled latency: the median of its scaled times in the run.
        settled = [statistics.median(op_times) for op_times in zip(*passes)]
        raw_wall = sum(statistics.median(op_times) for op_times in zip(*raw_passes))
        print(f"workload {workload} seed {seed}: {len(passes)} passes of {len(ops)} ops "
              f"(raw pass walls {[round(sum(p), 3) for p in raw_passes]}; "
              f"raw wall {raw_wall:.4f} s, scaled {sum(settled):.4f} s), "
              f"{ledger.failed}/{ledger.attempted} failed "
              f"(failed_frac {ledger.failed / ledger.attempted:.4f})")
        if trace:
            metrics = per_layer(workload, seed, ops, budget, ledger, sum(settled))
            units = tracing.PER_LAYER_UNITS
        else:
            metrics = end_to_end(setup_s, settled, ledger)
            units = END_TO_END_UNITS
        for line in ledger.report():
            print(line)
        return {"correct": ledger.correct, "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
