"""Compare the CLI outputs of two source checkouts, byte for byte.

    python tools/compare_outputs.py PARENT CHANGE --seeds 1 2 3

For every workload and seed, each checkout builds the benchmark's op inputs
with its own ``perfbench/workloads.build``, in a directory of its own, and
runs every CLI op of them (``info``, ``metric``, ``verify``, ``sc-demo``)
as ``python -m dessins`` with its own ``src`` on PYTHONPATH.  The exit codes,
stdout, stderr and output files of the two sides are compared after each
side's directory is replaced by ``<dir>`` and verify's elapsed times by
``<t>s``.  A traceback is compared by its last line, since its frames name
source lines that a change may move.  Library batches (``sc_inverse``,
``butterfly_belyi``) are not CLI ops and are skipped.

Prints one line per difference and exits 1 if there is any, else 0.
Standard library only; the checkouts' own code needs numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("metric", "groups", "dessins", "triangle")
_BUILD = ("import json, sys, workloads; from pathlib import Path; "
          "ops = workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])); "
          "print(json.dumps([op.argv for op in ops if hasattr(op, 'argv')]))")
_ELAPSED = re.compile(rb"\d+\.\d+s\b")


def _run(root: Path, argv: list[str], paths: list[str], cwd: Path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(root / p) for p in paths))
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True)


def _clean(raw: bytes, workdir: Path, verify: bool) -> bytes:
    """raw with the side's directory as <dir>, and verify's elapsed times as <t>s."""
    raw = raw.replace(str(workdir).encode(), b"<dir>")
    return _ELAPSED.sub(b"<t>s", raw) if verify else raw


def _side(root: Path, workload: str, seed: int, workdir: Path) -> list[tuple]:
    """Each CLI op of the workload as (argv, exit code, stdout, stderr, output file)."""
    workdir.mkdir(parents=True)
    built = _run(root, ["-c", _BUILD, workload, str(seed), str(workdir)],
                 ["src", "perfbench"], workdir)
    if built.returncode:
        sys.exit(f"error: {root} cannot build {workload} seed {seed}:\n{built.stderr.decode()}")
    results = []
    for argv in json.loads(built.stdout):
        res = _run(root, ["-m", "dessins", *argv], ["src"], workdir)
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        data = out.read_bytes() if out is not None and out.exists() else None
        stdout, stderr, data = (None if raw is None else _clean(raw, workdir, argv[0] == "verify")
                                for raw in (res.stdout, res.stderr, data))
        if stderr.startswith(b"Traceback"):
            stderr = stderr.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        label = " ".join(argv).replace(str(workdir), "<dir>")
        results.append((label, res.returncode, stdout, stderr, data))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the first checkout")
    parser.add_argument("change", type=Path, help="root of the second checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    differences = ops = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for workload in WORKLOADS:
            for seed in args.seeds:
                run = Path(tmp, f"{workload}-{seed}")
                sides = [_side(root.resolve(), workload, seed, run / name)
                         for name, root in (("parent", args.parent), ("change", args.change))]
                if len(sides[0]) != len(sides[1]):
                    print(f"{workload} seed {seed}: {len(sides[0])} ops against {len(sides[1])}")
                    differences += 1
                for a, b in zip(*sides):
                    ops += 1
                    fields = [name for name, x, y in zip(
                        ("argv", "exit code", "stdout", "stderr", "output file"), a, b) if x != y]
                    if fields:
                        print(f"{workload} seed {seed}: {a[0]}: {', '.join(fields)} differ")
                        differences += 1
    print(f"{ops} ops compared, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
