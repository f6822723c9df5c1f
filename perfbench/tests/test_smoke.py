"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Why each workload exists (each stresses a different layer, and each
layer is measured by at least one workload):

* ``metric`` -- ``dessins metric`` with all four constructions, CSV and
  JSON, on non-cyclic groups of order <= 60 (A4, S4, A5, small D_n), as
  tags or as conjugated two-generator files, at grids 40 to 200, plus
  ``verify metrics``.  Metric kernels, curvature, the invariance defect
  and grid output dominate; the group layer is a few percent.  The
  hermitian and orbit ops are the latency tail, large conjugate/average
  grids the median.
* ``groups`` -- ``dessins metric --construction conjugate|average`` at
  grid 8 on C_n/D_n tags whose orders span the closure cap of 200, on
  conjugated serialized groups (full element lists), plus ``verify
  groups``.  Closure, the order census and the all-pairs abelian check
  dominate; the metric layer runs only as many small per-element calls
  inside ``invariance_defect``, so per-call overhead in a kernel shows
  here and not on ``metric``.
* ``dessins`` -- ``dessins info`` on abelian regular dessins (stars,
  cyclic regular maps: classification is cubic), dihedral regular
  dessins (automorphisms are quadratic) and random dessins with trivial
  automorphism group (linear paths only).  The only workload for the
  ``dessin`` and ``permutations`` modules; it separates classification
  from automorphisms from parse and topology.
* ``triangle`` -- ``dessins sc-demo`` at several sample counts, ``verify
  sc`` and library batches of ``sc_inverse`` and ``butterfly_belyi``.
  The only workload for the triangle map; it runs quadrature forward
  only and under the Newton inverse.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def scratch(request):
    """A directory inside the checkout, which the benchmark may write to."""
    path = run.SCRATCH / f"smoke-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(workload, trace):
    result = run.bench(workload, seed=3, seconds=0.5, trace=trace, tiny=True)
    assert result["correct"], result
    assert result["attempted"] >= 1
    expected = tracing.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert 0.0 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_known_defects_are_recorded(scratch):
    """The tiny metric and groups lists keep one op of the orbit and closure-cap defects."""
    defects = set()
    for workload in ("metric", "groups"):
        ledger = run.Ledger()
        for k, op in enumerate(workloads.build(workload, 5, scratch / workload, tiny=True)):
            ledger.record(k, op, op.execute())
        assert ledger.correct
        defects |= {d for *_, d in ledger.failures}
    assert defects == {"orbit-invariance", "closure-cap"}


def test_same_seed_same_inputs(scratch):
    a = workloads.build("dessins", 7, scratch / "a", tiny=True)
    b = workloads.build("dessins", 7, scratch / "b", tiny=True)
    assert [(op.sigma_white, op.sigma_black) for op in a] == \
        [(op.sigma_white, op.sigma_black) for op in b]


def test_without_the_program_it_fails_without_a_result(scratch):
    shutil.copytree(BENCH, scratch / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "metric",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
