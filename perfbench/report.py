"""Every metric of every workload in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once per workload untraced and once traced, one after
another, and prints each metric with its unit, the failed ops and their
reasons.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads(
    (BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    table: dict[str, dict[str, dict]] = {}
    for trace in (0, 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=BENCH_DIR.parent, capture_output=True, text=True, check=True)
            *notes, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            print(f"[{workload} trace {trace}] correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed")
            for line in notes:
                print(line)
            for name, metric in result["metrics"].items():
                table.setdefault(name, {})[workload] = metric
    print()
    print(f"{'metric':40s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name, row in table.items():
        unit = next(iter(row.values()))["unit"]
        print(f"{name:40s} {unit:6s}" + "".join(f"{row[w]['value']:14.6g}" for w in WORKLOADS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
