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
``butterfly_belyi``) are not CLI ops and are skipped.  Every run also feeds
the fixed malformed dessin files of ``MALFORMED_DESSINS`` to ``info`` on
both sides, so each input error keeps its exit code and its one-line message,
and the well-formed dessins of ``_fixed_dessins()``, which no workload op
reaches: a cover whose automorphism candidates die down to a proper subgroup,
so the candidates are compacted, and a dessin whose candidates die down to
the identity.  It also feeds the generator files of ``_fixed_generators()``
to ``metric``: a serialized icosahedral group, whose second closure round has
3481 products that all repeat an element, part of it, whose round of 144
products registers new elements, its generator pair, two perturbed lists that
end in a ``NumericalAmbiguity``, three rotation pairs whose second round meets
a product within rounding of the dedup tolerance 1e-9 or of ten times it, the
band where closure takes numpy's gap over its Python one, and the serialized
icosahedral, octahedral and D7 groups conjugated by ``diag(s, 1) M`` for the
conjugators M of ``STRETCHED`` at s = 1e4 and 1e5, whose entries reach s and
whose second rounds drop their repeats with a wider rounding slack.  The
``orbit`` construction, whose workload ops stop at 192 orbit triples, runs on
the serialized icosahedral group and its generator pair, both conjugated, so
that their orbit triples have generic coordinates, and on the tags of
``ORBIT_GROUPS``: S4 (576 triples) and A5 (7200).  The tags of ``CAP_GROUPS`` close at and next to the
closure cap of 200: C199, D99, C200 and D100 close, and C201 raises
``InfiniteGroup``, compared by the last line of its traceback.

Last, both checkouts evaluate ``sc_forward`` on the fixed points of
``forward_grid()``: a grid of the upper half-plane over every region of the
triangle map, ``z = i``, and points on either side of the ratio of length
to clearance at which a segment from ``i`` changes its number of panels.
One line per region gives its bit-identical count and its largest relative
gap; a real-axis value that differs, or a gap above ``FORWARD_GAP``, counts
as a difference.

Prints one line per difference and exits 1 if there is any, else 0.
Standard library only; the checkouts' own code needs numpy.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import random
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

# Dessin files that info rejects with exit 2: bad labels, empty cycles around
# a bad one, too few labels, two rotations that are not transitive.  A label
# error names the first bad label in file order, with its first failing check
# (type, then range, then repeat).
MALFORMED_DESSINS = {
    "label-zero": '{"darts": 3, "sigma_white": [[1, 0]], "sigma_black": [[1, 2, 3]]}',
    "label-negative": '{"darts": 3, "sigma_white": [[1, 2, 3]], "sigma_black": [[-1, 2]]}',
    "label-above-darts": '{"darts": 3, "sigma_white": [[1, 2, 4]], "sigma_black": [[1, 2, 3]]}',
    "label-10**30": '{"darts": 3, "sigma_white": [[1, 2, 1000000000000000000000000000000]], '
                    '"sigma_black": [[1, 2, 3]]}',
    "label--10**30": '{"darts": 3, "sigma_white": [[1, 2, 3]], '
                     '"sigma_black": [[-1000000000000000000000000000000, 1]]}',
    "label-2**63": '{"darts": 3, "sigma_white": [[1, 9223372036854775808]], '
                   '"sigma_black": [[1, 2, 3]]}',
    "label--2**63": '{"darts": 3, "sigma_white": [[1, -9223372036854775808]], '
                    '"sigma_black": [[1, 2, 3]]}',
    "label-true": '{"darts": 3, "sigma_white": [[1, true]], "sigma_black": [[1, 2, 3]]}',
    "label-float": '{"darts": 3, "sigma_white": [[1, 2, 3]], "sigma_black": [[1.0, 2]]}',
    "label-string": '{"darts": 3, "sigma_white": [["1", 2, 3]], "sigma_black": [[1, 2, 3]]}',
    "label-nested-list": '{"darts": 3, "sigma_white": [[1, [2, 3]]], "sigma_black": [[1, 2, 3]]}',
    "label-null": '{"darts": 3, "sigma_white": [[1, null]], "sigma_black": [[1, 2, 3]]}',
    "repeat-in-cycle": '{"darts": 3, "sigma_white": [[1, 2, 1]], "sigma_black": [[1, 2, 3]]}',
    "repeat-across-cycles": '{"darts": 3, "sigma_white": [[1, 2, 3]], '
                            '"sigma_black": [[1, 2], [2, 3]]}',
    "range-before-type": '{"darts": 3, "sigma_white": [[1, 5, "x"]], "sigma_black": [[1, 2, 3]]}',
    "repeat-before-type": '{"darts": 3, "sigma_white": [[1, 1, true]], "sigma_black": [[1, 2, 3]]}',
    "type-before-range": '{"darts": 3, "sigma_white": [[1, 2.5, 7]], "sigma_black": [[1, 2, 3]]}',
    "white-before-black": '{"darts": 3, "sigma_white": [[1, 2, 2]], "sigma_black": [[0, 2, 3]]}',
    "repeat-after-empty-cycles": '{"darts": 3, "sigma_white": [[], [1, 2, 3], []], '
                                 '"sigma_black": [[], [1, 2], [], [2]]}',
    "only-empty-cycles": '{"darts": 2, "sigma_white": [[]], "sigma_black": [[], []]}',
    "fewer-labels-than-darts": '{"darts": 4, "sigma_white": [[1, 2]], "sigma_black": [[3]]}',
    "disconnected": '{"darts": 4, "sigma_white": [[1, 2, 3]], "sigma_black": [[1, 2]]}',
}


def _cyclic_cover(base: int, p: int, seed: int) -> str:
    """A connected p-fold cyclic voltage cover of a random dessin on ``base`` darts, as a file.

    The base's white rotation is a fixed-point-free involution and its black
    rotation is made of 3-cycles.  Dart (x, i) is x * p + i, and a rotation
    sends it to (sigma(x), i + v(x)), the voltages v drawn from Z_p so that
    every lifted cycle keeps its length; shifting i is an automorphism.
    Draws from ``random.Random(seed)`` repeat until the cover is connected.
    """
    rng = random.Random(seed)
    n = base * p
    while True:
        white, black = [], []
        darts = rng.sample(range(base), base)
        for x, y in zip(darts[::2], darts[1::2]):
            v = rng.randrange(p)
            white += [[x * p + i, y * p + (i + v) % p] for i in range(p)]
        darts = rng.sample(range(base), base)
        for x, y, z in zip(darts[::3], darts[1::3], darts[2::3]):
            u, v = rng.randrange(p), rng.randrange(p)
            black += [[x * p + i, y * p + (i + u) % p, z * p + (i + u + v) % p] for i in range(p)]
        sigmas = [[0] * n, [0] * n]
        for sigma, cycles in zip(sigmas, (white, black)):
            for cycle in cycles:
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    sigma[a] = b
        seen, walk = {0}, [0]
        for dart in walk:  # the walk grows while it is read
            for sigma in sigmas:
                if sigma[dart] not in seen:
                    seen.add(sigma[dart])
                    walk.append(sigma[dart])
        if len(walk) == n:
            return json.dumps({"darts": n, "sigma_white": [[d + 1 for d in c] for c in white],
                               "sigma_black": [[d + 1 for d in c] for c in black]})


def _fixed_dessins() -> dict[str, str]:
    """Well-formed dessin files that no workload op reaches, by name."""
    return {
        # 530 automorphism candidates die down to the 53 shifts of the cover
        "cover-636-darts-53-fold": _cyclic_cover(12, 53, 5),
        # 3711 candidates die down to the identity
        "trivial-6000-darts": _cyclic_cover(6000, 1, 5),
    }


def _product(x: tuple, y: tuple) -> tuple:
    """Product of 2x2 complex matrices given as their entries (a, b, c, d)."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _normalized(m: tuple) -> tuple:
    r = cmath.sqrt(m[0] * m[3] - m[1] * m[2])
    return tuple(z / r for z in m)


def _moved(m: tuple, c: tuple) -> tuple:
    """c m c^-1 for c of determinant 1."""
    return _product(_product(c, m), (c[3], -c[1], -c[2], c[0]))


def _closed(pair: list) -> list:
    """The group of a generator pair, closed breadth-first from the identity: a product
    is new unless within 1e-6 of an element, up to sign."""
    elements, frontier = [(1, 0, 0, 1)], [(1, 0, 0, 1)]
    while frontier:
        start = len(elements)
        for p in [_product(w, g) for w in frontier for g in pair]:
            if all(min(max(abs(u - v) for u, v in zip(p, e)),
                       max(abs(u + v) for u, v in zip(p, e))) > 1e-6 for e in elements):
                elements.append(p)
        frontier = elements[start:]
    return elements


# Fixed conjugators M, as entries (a, b, c, d), of the groups stretched by
# diag(s, 1) M.  At s = 1e4 all close; at 1e5 the first closes and the second
# ends A5 and S4 in a NumericalAmbiguity inside the first block of their second
# closure round, while its D7 closes to 14 elements that classify as other.
STRETCHED = ((0.5 - 0.5j, -0.1j, 0.3 + 0.6j, 0.7 - 0.1j),
             (0.3 - 0.6j, -0.8 - 0.3j, 0.4 + 0.4j, 0.9 - 0.2j))


def _fixed_generators() -> dict[str, str]:
    """Generator files that no workload op reaches, by name: the icosahedral group of the
    package's standard pair, closed breadth-first here and moved by a fixed conjugator,
    pairs whose second closure round meets a product at a gap of about 1e-9 or 1e-8,
    and the icosahedral, octahedral and D7 groups stretched by diag(s, 1) M."""
    delta = cmath.exp(2j * cmath.pi / 5)
    q = cmath.sqrt(1 - delta - 1 / delta)
    pair = [_normalized((delta, 0, 0, 1)), _normalized((1, q, q, -1))]
    elements = _closed(pair)
    c, nudge = _normalized((2, 1 + 1j, 0.5j, 1)), (1, 2e-9, 0, 1)
    moved = [_moved(e, c) for e in elements]
    files = {
        "a5-serialized": moved,
        "a5-twelve-elements": moved[1:13],
        "a5-one-element-nudged": moved[:30] + [_moved(moved[30], nudge)] + moved[31:],
        "a5-pair-moved": [_moved(pair[0], c), _moved(pair[1], c)],
        "a5-pair-nudged": [_moved(pair[0], c), _moved(_moved(pair[1], nudge), c)],
    }
    # z -> w z and the square of it with t at the top right: the product of the first
    # with itself lies |t| (up to rounding) from the second
    w = cmath.exp(1j * cmath.pi / 5)
    r = _normalized((w, 0, 0, 1 / w))
    square = _product(r, r)
    for name, t in (("1e-9", 1e-9), ("6e-10+8e-10i", 6e-10 + 8e-10j), ("6e-9+8e-9i", 6e-9 + 8e-9j)):
        files[f"c5-square-nudged-{name}"] = [r, (square[0], t, square[2], square[3])]
    pairs = {"a5": pair, "s4": [_normalized((1j, 0, 0, 1)), _normalized((1, 1, 1, -1))],
             "d7": [_normalized((cmath.exp(2j * cmath.pi / 7), 0, 0, 1)),
                    _normalized((0, 1, 1, 0))]}
    for name, group in pairs.items():
        elements = _closed(group)
        for s in (1e4, 1e5):
            for k, m in enumerate(STRETCHED):
                c = _normalized(_product((s, 0, 0, 1), m))
                files[f"{name}-stretched-{s:.0e}-{k}"] = [_moved(e, c) for e in elements]
    return {name: json.dumps([[[z.real, z.imag] for z in m] for m in ms])
            for name, ms in files.items()}


FORWARD_GAP = 1e-14  # largest relative gap allowed between the checkouts' forward maps
_FORWARD = ("import json, sys; from dessins.schwarz_christoffel import sc_forward; "
            "points = json.load(open(sys.argv[1])); "
            "print(json.dumps([[w.real, w.imag] for w in "
            "(sc_forward(complex(x, y)) for x, y in points)]))")
_PANEL_RATIO = 6.5 / 4  # a segment from i within this ratio takes one panel


def _segment_ratio(z: complex) -> float:
    """Length of the segment from i to z over its distance from 0 and -1."""
    span = z - 1j
    distances = []
    for p in (0.0, -1.0):
        s = min(max(((p - 1j) / span).real, 0.0), 1.0)
        distances.append(abs(1j + span * s - p))
    return abs(span) / min(distances)


def _forward_region(z: complex) -> str:
    if abs(z) <= 0.5:
        return "|z| <= 0.5"
    if abs(z + 1.0) <= 0.5:
        return "|z + 1| <= 0.5"
    if abs(z) > 2.0:
        return "|z| > 2"
    if z == 1j or _segment_ratio(z) <= _PANEL_RATIO:
        return f"from i, ratio <= {_PANEL_RATIO}"
    return f"from i, ratio > {_PANEL_RATIO}"


def forward_grid() -> list[complex]:
    """Fixed points of the closed upper half-plane for the forward-map comparison."""
    points = [complex(x / 20.0, y / 20.0) for x in range(-50, 51) for y in range(51)]
    points += [complex(x, y) for x in (-40.0, -7.0, 3.0, 40.0) for y in (0.0, 1.0, 25.0)]
    points.append(1j)
    for k in range(1, 360):  # segments from i heading below it, bisected on their ratio
        direction = cmath.exp(-1j * cmath.pi * k / 360)
        for ratio in (_PANEL_RATIO * (1.0 - 1e-9), _PANEL_RATIO * (1.0 + 1e-9)):
            lo, hi = 0.0, 2.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _segment_ratio(1j + mid * direction) <= ratio else (lo, mid)
            z = 1j + lo * direction
            if z.imag > 0 and _forward_region(z).startswith("from i"):
                points.append(z)
    return points


def _forward_values(root: Path, points_file: Path) -> list[complex]:
    res = _run(root, ["-c", _FORWARD, str(points_file)], ["src"], points_file.parent)
    if res.returncode:
        sys.exit(f"error: {root} cannot evaluate sc_forward:\n{res.stderr.decode()}")
    return [complex(x, y) for x, y in json.loads(res.stdout)]


def _compare_forward(parent: Path, change: Path, tmp: str) -> int:
    """Print the forward grid's per-region agreement; return its number of differences."""
    points = forward_grid()
    points_file = Path(tmp, "forward-grid.json")
    points_file.write_text(json.dumps([[z.real, z.imag] for z in points]), encoding="utf-8")
    sides = [_forward_values(root, points_file) for root in (parent, change)]
    regions: dict[str, list] = {}
    differences = 0
    for z, a, b in zip(points, *sides):
        gap = abs(a - b) / abs(b) if b else abs(a - b)
        same = (a.real, a.imag) == (b.real, b.imag)
        if (not z.imag and not same) or gap > FORWARD_GAP:
            print(f"forward grid: sc_forward({z!r}): {a!r} against {b!r}")
            differences += 1
        counts = regions.setdefault(_forward_region(z), [0, 0, 0.0])
        counts[0] += 1
        counts[1] += same
        counts[2] = max(counts[2], gap)
    for name, (total, same, gap) in regions.items():
        print(f"forward grid: {name}: {same}/{total} bit-identical, largest relative gap {gap:.3g}")
    return differences


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
    return _cli_results(root, json.loads(built.stdout), workdir)


def _file_side(root: Path, workdir: Path, files: dict[str, str], command) -> list[tuple]:
    """``command(path)`` on each of ``files``, text by name, as _side reports its ops."""
    workdir.mkdir(parents=True)
    argvs = []
    for name, text in files.items():
        path = workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        argvs.append(command(path))
    return _cli_results(root, argvs, workdir)


def _info(path: Path) -> list[str]:
    return ["info", str(path)]


def _metric(construction: str):
    """The command of ``metric --construction construction`` on a generator file."""
    def command(path: Path) -> list[str]:
        return ["metric", "--generators", str(path), "--construction", construction,
                "--grid", "8", "--out", str(path.with_suffix(".csv"))]
    return command


# (tag, construction, output format) of the metric runs on group tags: the orbit
# construction, and closures that end one element either side of the cap of 200
ORBIT_GROUPS = (("S4", "orbit", "json"), ("A5", "orbit", "csv"))
CAP_GROUPS = (("C199", "conjugate", "csv"), ("C200", "average", "csv"),
              ("C201", "average", "csv"), ("D99", "average", "json"),
              ("D100", "conjugate", "csv"))


def _group_side(root: Path, workdir: Path, runs) -> list[tuple]:
    """``metric --group tag`` for each (tag, construction, format) of runs, as _side
    reports its ops."""
    workdir.mkdir(parents=True)
    argvs = [["metric", "--group", tag, "--construction", construction, "--grid", "8",
              "--format", fmt, "--out", str(workdir / f"{construction}-{tag}.{fmt}")]
             for tag, construction, fmt in runs]
    return _cli_results(root, argvs, workdir)


def _cli_results(root: Path, argvs: list[list[str]], workdir: Path) -> list[tuple]:
    """Each argv run as ``python -m dessins`` in workdir, as _side reports it."""
    results = []
    for argv in argvs:
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


def _runs(parent: Path, change: Path, seeds: list[int], tmp: str):
    """(title, [parent results, change results]) of each workload and seed, then of the
    malformed and the fixed dessins, of the fixed generators and of the fixed orbit
    runs, one run at a time."""
    roots = (("parent", parent), ("change", change))
    for workload in WORKLOADS:
        for seed in seeds:
            yield f"{workload} seed {seed}", [
                _side(root, workload, seed, Path(tmp, f"{workload}-{seed}", name))
                for name, root in roots]
    generators = _fixed_generators()
    for title, files, command in (
            ("malformed dessins", MALFORMED_DESSINS, _info),
            ("fixed dessins", _fixed_dessins(), _info),
            ("fixed generators", generators, _metric("average")),
            ("fixed orbit generators", {name: generators[name]
                                        for name in ("a5-serialized", "a5-pair-moved")},
             _metric("orbit"))):
        yield title, [_file_side(root, Path(tmp, title.replace(" ", "-"), name), files, command)
                      for name, root in roots]
    for title, runs in (("fixed orbit groups", ORBIT_GROUPS), ("fixed cap groups", CAP_GROUPS)):
        yield title, [_group_side(root, Path(tmp, title.replace(" ", "-"), name), runs)
                      for name, root in roots]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the first checkout")
    parser.add_argument("change", type=Path, help="root of the second checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    differences = ops = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for title, sides in _runs(args.parent.resolve(), args.change.resolve(), args.seeds, tmp):
            if len(sides[0]) != len(sides[1]):
                print(f"{title}: {len(sides[0])} ops against {len(sides[1])}")
                differences += 1
            for a, b in zip(*sides):
                ops += 1
                fields = [name for name, x, y in zip(
                    ("argv", "exit code", "stdout", "stderr", "output file"), a, b) if x != y]
                if fields:
                    print(f"{title}: {a[0]}: {', '.join(fields)} differ")
                    differences += 1
        differences += _compare_forward(args.parent.resolve(), args.change.resolve(), tmp)
    print(f"{ops} ops compared, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
