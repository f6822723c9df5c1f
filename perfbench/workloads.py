"""Seeded inputs for the four workloads, written as files the CLI reads.

The structure of each op list (kinds, groups, grid sizes, dart counts) is
fixed, so every seed costs about the same; the seed draws the conjugators,
the dart labellings, the rotations of the regular dessins, the random
dessins, the triangle-map points and the ``--seed`` of every CLI call.
Why each workload exists is written down in ``tests/test_smoke.py``.
``tiny=True`` shrinks every size for the smoke test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from dessins.finite_groups import conjugate_group, from_type, random_conjugator
from dessins.grouptypes import parse_group_tag
from dessins.moebius import standard_generators

from ops import (SQRT3, ButterflyBatchOp, InfoOp, InverseBatchOp, MetricOp,
                 ScDemoOp, VerifyOp, mirror)

WORKLOADS = ("metric", "groups", "dessins", "triangle")

# metric: (construction, group, conjugated two-generator file?, grid, format).
# The hermitian ops take tags: their cost swings twofold with the conjugator.
# The list is kept near 1.5 s, so that with ``verify metrics`` (about 2 s) a
# pass repeats often enough in a run for each op's median to settle.
_METRIC = [
    ("average", "A4", False, 40, "csv"),
    ("average", "S4", True, 60, "csv"),
    ("average", "A5", False, 40, "csv"),
    ("average", "D5", True, 80, "json"),
    ("average", "D3", False, 120, "csv"),
    ("conjugate", "A4", True, 40, "csv"),
    ("conjugate", "S4", False, 80, "json"),
    ("conjugate", "A5", True, 60, "csv"),
    ("conjugate", "D4", True, 60, "json"),
    ("conjugate", "D6", False, 200, "csv"),
    ("hermitian", "A4", False, 40, "csv"),
    ("hermitian", "D4", False, 40, "json"),
    ("hermitian", "S4", False, 40, "csv"),
    ("hermitian", "D6", False, 40, "csv"),
    ("orbit", "D3", True, 40, "csv"),
    ("orbit", "A4", False, 40, "csv"),
    ("orbit", "D4", False, 40, "json"),
    ("orbit", "D5", True, 40, "csv"),
]
_METRIC_TINY = [
    ("average", "D3", True, 6, "json"),
    ("conjugate", "A4", True, 6, "csv"),
    ("hermitian", "D2", False, 6, "csv"),
    ("orbit", "D3", True, 6, "csv"),
]

# groups: tags whose orders span the closure cap of 200, then conjugated
# serialized groups (full element lists), all at grid 8.  Serialized closure
# is cubic in the list: order 60 takes over 1 s, order 100 over 5 s.
_GROUP_TAGS = [("average", "C50"), ("conjugate", "C140"), ("conjugate", "D50"),
               ("average", "C100"), ("conjugate", "D101"), ("average", "C250")]
_GROUP_SERIALIZED = [("conjugate", "S4"), ("average", "D15"), ("conjugate", "C30")]
_GROUP_TAGS_TINY = [("average", "C5"), ("conjugate", "C5"), ("average", "C250")]
_GROUP_SERIALIZED_TINY = [("conjugate", "A4")]
_GROUP_GRID = 8

# dessins: (kind, size): stars and cyclic regular maps by darts, D_n by n,
# random dessins by darts.  The cost of a random dessin swings up to twofold
# with the seed (how soon each candidate automorphism hits a conflict), so
# the random ones stay well below the median op, the 120-dart star, and
# op_p50_ms does not jump from one op to another with the seed.
_DESSINS = [("star", 80), ("star", 100), ("star", 120), ("star", 150),
            ("cyclic", 100), ("cyclic", 140), ("cyclic", 160),
            ("dihedral", 300), ("dihedral", 350), ("dihedral", 400),
            ("random", 1000), ("random", 1500), ("random", 2000)]
_DESSINS_TINY = [("star", 8), ("cyclic", 10), ("dihedral", 5), ("random", 20)]

# triangle: sc-demo sample counts, and library batches of (kind, points).
# The seed's points change the Newton iteration counts of a batch, so the
# batches stay well below and above the median op, sc-demo at 150 samples.
_SC_SAMPLES = [20, 60, 150, 300]
_SC_BATCHES = [("inverse", 20), ("butterfly", 20), ("inverse", 25), ("butterfly", 25),
               ("inverse", 70), ("butterfly", 70), ("inverse", 90), ("butterfly", 90)]
_SC_SAMPLES_TINY = [3]
_SC_BATCHES_TINY = [("inverse", 3), ("butterfly", 3)]


def _cli_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# metric and groups

def _metric_op(outdir: Path, k: int, rng, construction: str, tag: str, source: str,
               grid: int, fmt: str) -> MetricOp:
    """source: "tag", "generators" (conjugated) or "elements" (conjugated, serialized)."""
    group_type = parse_group_tag(tag)
    cond = None
    if source == "tag":
        args = ["--group", tag]
    else:
        m = random_conjugator(rng)
        cond = float(np.linalg.cond(m.matrix))
        if source == "generators":
            mi = m.inverse()
            data = [m.compose(g).compose(mi).to_entries() for g in standard_generators(group_type)]
        else:
            data = conjugate_group(from_type(group_type), m).to_json()
        args = ["--generators", _write_json(outdir / f"op{k}-group.json", data)]
    out = str(outdir / f"op{k}.{fmt}")
    argv = ["metric", *args, "--construction", construction, "--grid", str(grid),
            "--format", fmt, "--seed", str(_cli_seed(rng)), "--out", out]
    label = f"metric {construction} {tag}{'' if source == 'tag' else '~' + source} grid {grid} {fmt}"
    return MetricOp(label, argv, construction, grid, fmt, out,
                    group_type.expected_order, str(group_type), cond)


def _metric_ops(outdir: Path, rng, tiny: bool) -> list:
    spec = _METRIC_TINY if tiny else _METRIC
    ops = [_metric_op(outdir, k, rng, c, tag, "generators" if conj else "tag", grid, fmt)
           for k, (c, tag, conj, grid, fmt) in enumerate(spec)]
    ops.append(VerifyOp("verify sc" if tiny else "verify metrics",
                        "sc" if tiny else "metrics", _cli_seed(rng)))
    return ops


def _groups_ops(outdir: Path, rng, tiny: bool) -> list:
    tags = _GROUP_TAGS_TINY if tiny else _GROUP_TAGS
    serialized = _GROUP_SERIALIZED_TINY if tiny else _GROUP_SERIALIZED
    ops = [_metric_op(outdir, k, rng, c, tag, "tag", _GROUP_GRID, "csv")
           for k, (c, tag) in enumerate(tags)]
    ops += [_metric_op(outdir, len(tags) + k, rng, c, tag, "elements", _GROUP_GRID, "csv")
            for k, (c, tag) in enumerate(serialized)]
    ops.append(VerifyOp("verify sc" if tiny else "verify groups",
                        "sc" if tiny else "groups", _cli_seed(rng)))
    return ops


# ---------------------------------------------------------------------------
# dessins

def _dihedral_regular(n: int, rng) -> tuple[list[int], list[int]]:
    """Darts are the elements r^i s^f of D_n; rotations multiply on the right.

    Either a rotation r^j (j prime to n) and a reflection s r^i, or two
    reflections whose quotient is a generating rotation; both pairs
    generate D_n, whose left multiplications are the automorphisms.
    """
    units = [j for j in range(1, n) if math.gcd(j, n) == 1]
    i = int(rng.integers(n))
    if rng.integers(2):
        a, b = (int(rng.choice(units)), 0), (i, 1)
    else:
        a, b = (i, 1), ((i + int(rng.choice(units))) % n, 1)

    def index(i: int, f: int) -> int:
        return i + n * f

    def times(x: tuple[int, int], y: tuple[int, int]) -> int:
        # r^i s^f . r^j s^g = r^(i + (-1)^f j) s^(f + g)
        (i, f), (j, g) = x, y
        return index((i + (j if f == 0 else -j)) % n, (f + g) % 2)

    darts = [(i, f) for f in (0, 1) for i in range(n)]
    return [times(x, a) for x in darts], [times(x, b) for x in darts]


def _random_transitive(n: int, rng) -> tuple[list[int], list[int]]:
    while True:
        sw = [int(x) for x in rng.permutation(n)]
        sb = [int(x) for x in rng.permutation(n)]
        seen, stack = {0}, [0]
        while stack:
            d = stack.pop()
            for e in (sw[d], sb[d]):
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
        if len(seen) == n:
            return sw, sb


def _relabel(sw: list[int], sb: list[int], rng) -> tuple[list[int], list[int]]:
    """Conjugate both rotations by a random relabelling of the darts."""
    p = [int(x) for x in rng.permutation(len(sw))]
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return ([p[sw[inv[i]]] for i in range(len(p))],
            [p[sb[inv[i]]] for i in range(len(p))])


def _cycles(perm: list[int]) -> list[list[int]]:
    """1-based disjoint cycles, fixed points omitted (the CLI's file format)."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j + 1)
            j = perm[j]
        if len(cycle) > 1:
            out.append(cycle)
    return out


def _dessin_op(outdir: Path, k: int, rng, kind: str, size: int) -> InfoOp:
    if kind == "star":
        sw, sb = [(i + 1) % size for i in range(size)], list(range(size))
        aut = (size, f"C{size}")
    elif kind == "cyclic":
        step = int(rng.integers(2, size - 1))
        sw, sb = [(i + 1) % size for i in range(size)], [(i + step) % size for i in range(size)]
        aut = (size, f"C{size}")
    elif kind == "dihedral":
        sw, sb = _dihedral_regular(size, rng)
        aut = (2 * size, f"D{size}")
    else:
        sw, sb = _random_transitive(size, rng)
        aut = (None, None)
    sw, sb = _relabel(sw, sb, rng)
    path = _write_json(outdir / f"op{k}-dessin.json",
                       {"darts": len(sw), "sigma_white": _cycles(sw), "sigma_black": _cycles(sb)})
    return InfoOp(f"info {kind} {len(sw)} darts", path, sw, sb, *aut)


def _dessins_ops(outdir: Path, rng, tiny: bool) -> list:
    spec = _DESSINS_TINY if tiny else _DESSINS
    return [_dessin_op(outdir, k, rng, kind, size) for k, (kind, size) in enumerate(spec)]


# ---------------------------------------------------------------------------
# triangle

_TRIANGLE = (0j, 1 + 0j, -1j * SQRT3)  # right-angle, pi/3 and pi/6 vertices


def _triangle_points(rng, count: int, margin: float = 0.02) -> list[complex]:
    """Uniform points of the triangle, every barycentric weight at least ``margin``."""
    pts = []
    while len(pts) < count:
        w = rng.dirichlet((1.0, 1.0, 1.0))
        if w.min() >= margin:
            pts.append(complex(sum(float(wi) * v for wi, v in zip(w, _TRIANGLE))))
    return pts


def _triangle_ops(outdir: Path, rng, tiny: bool) -> list:
    samples = _SC_SAMPLES_TINY if tiny else _SC_SAMPLES
    batches = _SC_BATCHES_TINY if tiny else _SC_BATCHES
    ops = [ScDemoOp(f"sc-demo samples {s}", s, str(outdir / f"op{k}-sc.json"))
           for k, s in enumerate(samples)]
    ops.append(VerifyOp("verify sc", "sc", _cli_seed(rng)))
    for kind, count in batches:
        pts = _triangle_points(rng, count)
        if kind == "inverse":
            ops.append(InverseBatchOp(f"sc_inverse x{count}", pts))
        else:
            mirrored = [bool(x) for x in rng.integers(0, 2, count)]
            pts = [mirror(p, _TRIANGLE[1], _TRIANGLE[2]) if m else p
                   for p, m in zip(pts, mirrored)]
            ops.append(ButterflyBatchOp(f"butterfly_belyi x{count}", pts, mirrored))
    return ops


# ---------------------------------------------------------------------------

_BUILDERS = {"metric": _metric_ops, "groups": _groups_ops,
             "dessins": _dessins_ops, "triangle": _triangle_ops}


def build(workload: str, seed: int, outdir: Path, tiny: bool = False) -> list:
    """The workload's op list for this seed, with its input files in ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](outdir, np.random.default_rng([seed, WORKLOADS.index(workload)]),
                               tiny)


def warmups(workload: str, outdir: Path) -> list:
    """One tiny op of each kind the workload runs, to fill lazy state before timing."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    if workload == "dessins":
        return [_dessin_op(outdir, 0, rng, "dihedral", 2)]
    verify = VerifyOp("verify sc", "sc", 0)
    if workload == "triangle":
        return [ScDemoOp("sc-demo samples 2", 2, str(outdir / "sc.json")), verify,
                InverseBatchOp("sc_inverse x2", _triangle_points(rng, 2)),
                ButterflyBatchOp("butterfly_belyi x2", _triangle_points(rng, 2), [False, False])]
    constructions = sorted({spec[0] for spec in
                            (_METRIC if workload == "metric" else _GROUP_TAGS)})
    return [_metric_op(outdir, k, rng, c, "D2", "tag", 4, "csv")
            for k, c in enumerate(constructions)] + [verify]
