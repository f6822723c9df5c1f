"""Benchmark operations: one call into dessins each, with its contract check.

An op is either a call to ``dessins.cli.main(argv)`` with stdout and
stderr captured and its output file written to the run's scratch
directory, or, for the triangle map, a batch of calls into the library.
Every op knows four things:

* ``execute()`` runs the op; only this is timed;
* ``check(outcome)`` compares the output with the library's documented
  contract and returns ``None`` or a ``Failure``;
* ``summary(outcome)`` reduces the output to what the traced replay
  must reproduce exactly;
* ``replay(tracer)`` makes the same sequence of public calls the CLI
  makes, each inside a span, and returns the same kind of summary.

Metric ops also have ``probe(probes)``, which times single layers
(classification, element orders, kernels, curvature) outside the replay.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from dessins import cli, verification
from dessins import dessin as dd
from dessins import metrics as mt
from dessins import schwarz_christoffel as sc
from dessins.errors import CyclicGroupUnsupported, DessinsError
from dessins.finite_groups import (classify_elements, closure,
                                   conjugator_well_defined, is_in_SO3,
                                   orbit_analysis, unitarize)
from dessins.grouptypes import parse_group_tag
from dessins.moebius import MoebiusTransform, element_order, standard_generators

# The seed's closure stops at 200 elements whatever the input.
CLOSURE_CAP = 200
GRID_HEADER = "re,im,chart,rho,curvature"
ROUND_TRIP_TOL = 1e-9
SIDE_TOL = 1e-9
SQRT3 = math.sqrt(3.0)
# Checks per verify scope, as the CLI's summary line counts them.
VERIFY_CHECKS = {"groups": 5, "metrics": 4, "sc": 1}

# Defects of the seed that the benchmark records instead of hiding.  An op
# failure outside this table makes the run incorrect.
KNOWN_DEFECTS = {
    "orbit-invariance": "the orbit metric is not group-invariant (defect about 10), "
                        "although the paper calls all four constructions invariant",
    "conjugate-curvature": "finite-difference curvature misses |K-1| < 1e-4 on a "
                           "badly conditioned conjugate",
    "closure-cap": "a tag above the closure cap of 200 raises an uncaught InfiniteGroup",
}

CONSTRUCTIONS = {
    "average": mt.averaged_metric,
    "conjugate": mt.conjugated_metric,
    "hermitian": mt.hermitian_metric,
    "orbit": mt.orbit_triple_metric,
}


@dataclass
class Outcome:
    rc: int | None = None        # exit code; None when the call raised
    stdout: str = ""
    stderr: str = ""
    error: str | None = None     # "ExceptionName: message" when the call raised
    value: object = None         # library ops: the computed values


@dataclass
class Failure:
    reason: str
    defect: str | None  # a KNOWN_DEFECTS key, or None for an unexpected failure


def _failure(problems: list[tuple[str, str | None]]) -> Failure | None:
    """Merge a list of (reason, defect); known only if every problem is."""
    if not problems:
        return None
    defects = {d for _, d in problems}
    defect = defects.pop() if len(defects) == 1 else None
    return Failure("; ".join(r for r, _ in problems), defect)


def call_cli(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    res = Outcome()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            res.rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            res.rc = exc.code
        except Exception as exc:  # an uncaught library error fails the op; record it
            res.error = f"{type(exc).__name__}: {exc}"
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    return res


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def clipped_grid_count(n: int) -> int:
    """Points of the n x n tensor grid on [-1, 1]^2 inside the closed unit disc."""
    xs = np.linspace(-1.0, 1.0, n)
    return int(np.count_nonzero(np.hypot(xs[:, None], xs[None, :]) <= 1.0))


# ---------------------------------------------------------------------------
# dessins metric

def _generators(args) -> list[MoebiusTransform]:
    """The CLI's reading of --group or --generators."""
    if args.group:
        return standard_generators(parse_group_tag(args.group))
    with open(args.generators, encoding="utf-8") as fh:
        data = json.load(fh)
    entries = data["elements"] if isinstance(data, dict) else data
    return [MoebiusTransform.from_entries(e) for e in entries]


@dataclass
class MetricOp:
    label: str
    argv: list[str]
    construction: str
    grid: int
    fmt: str
    out_path: str
    expected_order: int
    expected_type: str
    cond: float | None = None  # condition number of the input's conjugator
    kind: str = field(init=False, default="metric")
    deterministic: bool = field(init=False, default=True)

    @property
    def expects_exclusion(self) -> bool:
        """The conjugate construction must exit 3 on a cyclic group."""
        return self.construction == "conjugate" and self.expected_type.startswith("C")

    def execute(self) -> Outcome:
        return call_cli(self.argv)

    def digest(self, out: Outcome) -> str:
        return _sha(out.stdout) + _sha(_read(self.out_path))

    def check(self, out: Outcome) -> Failure | None:
        if self.expects_exclusion:
            if out.rc == 3:
                return None
            return Failure(f"expected exit 3 for a cyclic group, got {out.error or out.rc}", None)
        if out.rc != 0:
            defect = "closure-cap" if self.expected_order > CLOSURE_CAP else None
            return Failure(out.error or f"exit {out.rc}: {out.stderr.strip()}", defect)
        try:
            report = json.loads(out.stdout)
            diag = report["diagnostics"]
            problems = self._check_report(report, diag)
            problems += self._check_grid(report["grid"]["rows"])
        except (ValueError, KeyError, TypeError) as exc:
            return Failure(f"malformed output: {type(exc).__name__}: {exc}", None)
        return _failure(problems)

    def _check_report(self, report: dict, diag: dict) -> list[tuple[str, str | None]]:
        problems = []
        group = report["group"]
        if (group["order"], group["type"]) != (self.expected_order, self.expected_type):
            problems.append((f"group {group['type']} of order {group['order']}, expected "
                             f"{self.expected_type} of order {self.expected_order}", None))
        rows = 2 * clipped_grid_count(self.grid)
        if report["grid"]["rows"] != rows:
            problems.append((f"report says {report['grid']['rows']} rows, grid has {rows}", None))
        tol = 1e-8 if self.construction == "conjugate" else 1e-9
        inv = diag["invariance_defect"]
        if not inv < tol:
            defect = "orbit-invariance" if self.construction == "orbit" else None
            problems.append((f"invariance_defect {inv:.3g} >= {tol:g}", defect))
        if self.construction == "conjugate":
            dev = max(abs(diag["curvature_min"] - 1.0), abs(diag["curvature_max"] - 1.0))
            if not dev < 1e-4:
                defect = "conjugate-curvature" if self.cond is not None else None
                cond = f" (conjugator condition {self.cond:.1f})" if self.cond else ""
                problems.append((f"|K-1| {dev:.3g} >= 1e-4{cond}", defect))
            spread = diag["well_definedness_distance"]
            if not spread < 1e-6:
                problems.append((f"well-definedness spread {spread:.3g} >= 1e-6", None))
        return problems

    def _check_grid(self, rows: int) -> list[tuple[str, str | None]]:
        text = _read(self.out_path).decode("utf-8")
        if self.fmt == "csv":
            lines = text.split("\n")
            if lines[0] != GRID_HEADER or lines[-1] != "":
                return [("CSV grid lacks its header or final newline", None)]
            cells = [line.split(",") for line in lines[1:-1]]
            charts = {c[2] for c in cells}
            rho = [float(c[3]) for c in cells]
        else:
            entries = json.loads(text)
            charts = {e["chart"] for e in entries}
            rho = [e["rho"] for e in entries]
        problems = []
        if len(rho) != rows:
            problems.append((f"grid file has {len(rho)} rows, report says {rows}", None))
        if charts != {"finite", "infinity"}:
            problems.append((f"grid charts {sorted(charts)}", None))
        if not all(math.isfinite(r) and r > 0.0 for r in rho):
            problems.append(("rho not finite and positive everywhere", None))
        return problems

    def summary(self, out: Outcome):
        if out.error is not None:
            return {"error": out.error.split(":")[0]}
        if out.rc != 0:
            return {"rc": out.rc}
        report = json.loads(out.stdout)
        return {"rc": 0, "order": report["group"]["order"],
                "type": report["group"]["type"],
                "grid_sha": _sha(_read(self.out_path)),
                "diagnostics": report["diagnostics"]}

    def replay(self, tr):
        args = cli.build_parser().parse_args(self.argv)
        gens = _generators(args)
        tr.count("finite_groups.input_elements", len(gens))
        try:
            with tr.span("finite_groups.closure"):
                group = closure(gens)
        except DessinsError as exc:
            return {"error": type(exc).__name__}
        tr.count("finite_groups.order", group.order)
        try:
            with tr.span("metrics.build"):
                metric = CONSTRUCTIONS[args.construction](group)
        except CyclicGroupUnsupported:
            return {"rc": 3}
        with tr.span("metrics.grid_rows"):
            rows = mt.metric_grid_rows(metric, n=args.grid, step=args.step)
        with tr.span("metrics.grid_format"):
            if args.format == "csv":
                payload = mt.format_grid_csv(rows)
            else:
                payload = json.dumps(mt.grid_rows_as_json(rows), sort_keys=True, indent=1) + "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        tr.count("metrics.grid_bytes", len(payload))
        curvatures = [row[4] for row in rows]
        with tr.span("metrics.invariance_defect"):
            inv = mt.invariance_defect(metric, group, 200)
        diagnostics = {"invariance_defect": inv,
                       "curvature_min": min(curvatures),
                       "curvature_max": max(curvatures),
                       "curvature_spread": max(curvatures) - min(curvatures)}
        if args.construction == "conjugate":
            with tr.span("finite_groups.well_defined"):
                diagnostics["well_definedness_distance"] = conjugator_well_defined(
                    group, trials=2, seed=args.seed)
            with tr.span("metrics.metric_distance"):
                mt.metric_distance(metric, mt.round_metric(), 200)
        with tr.span("finite_groups.so3_check"):
            is_in_SO3(group, 1e-8)
        report = {"construction": args.construction,
                  "group": {"order": group.order, "type": str(group.type_tag)},
                  "grid": {"path": args.out, "rows": len(rows)},
                  "diagnostics": diagnostics}
        json.dumps(report, sort_keys=True, indent=2)  # the CLI prints it: cli.self_s
        return {"rc": 0, "order": group.order, "type": str(group.type_tag),
                "grid_sha": _sha(payload), "diagnostics": diagnostics}

    def probe(self, pr) -> None:
        """Time classification, element orders, kernels and curvature on this op's input."""
        args = cli.build_parser().parse_args(self.argv)
        try:
            group = closure(_generators(args))
            metric = CONSTRUCTIONS[args.construction](group)
        except DessinsError:
            return
        with pr.timed("finite_groups.classify_s"):
            classify_elements(group.elements)
        for m in group.elements:
            with pr.timed("moebius.element_order_s", calls=1):
                element_order(m, group.order)
        cyclic = group.type_tag.is_cyclic
        if args.construction == "conjugate":
            with pr.timed("finite_groups.unitarize_s"):
                unitarize(group)
        if args.construction == "orbit" and not cyclic:
            with pr.timed("finite_groups.orbit_analysis_s"):
                orbit_analysis(group)
        if args.construction in ("average", "hermitian"):
            stack = group.order
        elif args.construction == "orbit" and not cyclic:
            stack = len(mt.orbit_triple_matrices(group))
        else:
            stack = 1
        pts = mt.grid_points(args.grid)
        evals = 2 * len(pts) * stack
        with pr.timed("metrics.density_s", evals=evals):
            metric.rho(pts)
            metric.rho_at_infinity(pts)
        with pr.timed("metrics.curvature_s", evals=5 * evals):
            mt.curvature_samples(metric, "finite", pts, args.step)
            mt.curvature_samples(metric, "infinity", pts, args.step)


# ---------------------------------------------------------------------------
# dessins info

def _cycle_lengths(perm: list[int]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _ints(text: str) -> list[int]:
    """"[3,2,1]" -> [3, 2, 1]"""
    return [int(x) for x in text.strip("[]").split(",") if x]


@dataclass
class InfoOp:
    label: str
    path: str
    sigma_white: list[int]  # 0-based images, as written to the file
    sigma_black: list[int]
    aut_order: int | None   # known from the construction; None: only divides the darts
    aut_type: str | None
    kind: str = field(init=False, default="info")
    deterministic: bool = field(init=False, default=True)

    @property
    def argv(self) -> list[str]:
        return ["info", self.path]

    def execute(self) -> Outcome:
        return call_cli(self.argv)

    def digest(self, out: Outcome) -> str:
        return _sha(out.stdout)

    def expected(self) -> dict:
        """Darts, genus, passport and triangulation recomputed from cycle counts."""
        n = len(self.sigma_white)
        face = [self.sigma_white[self.sigma_black[i]] for i in range(n)]
        white, black = _cycle_lengths(self.sigma_white), _cycle_lengths(self.sigma_black)
        faces = _cycle_lengths(face)
        chi = len(white) + len(black) + len(faces) - n
        return {"darts": n, "genus": (2 - chi) // 2,
                "passport": [n, list(white), list(black), list(faces)],
                "triangles": 2 * n, "butterflies": n}

    def summary(self, out: Outcome):
        if out.rc != 0:
            return {"rc": out.rc, "error": out.error}
        fields = {}
        for line in out.stdout.splitlines():
            key, _, rest = line.partition(": ")
            fields[key] = rest
        parts = dict(p.strip().split(" ", 1) for p in fields["passport"].split(";"))
        tri = fields["triangulation"].split()
        aut = fields["automorphisms"].replace(",", "").split()
        return {"darts": int(fields["darts"]), "genus": int(fields["genus"]),
                "passport": [int(parts["degree"]), _ints(parts["white"]),
                             _ints(parts["black"]), _ints(parts["faces"])],
                "triangles": int(tri[0]), "butterflies": int(tri[2]),
                "aut_order": int(aut[1]), "aut_type": aut[3]}

    def check(self, out: Outcome) -> Failure | None:
        if out.rc != 0:
            return Failure(out.error or f"exit {out.rc}: {out.stderr.strip()}", None)
        try:
            got = self.summary(out)
        except (KeyError, ValueError, IndexError) as exc:
            return Failure(f"malformed output: {type(exc).__name__}: {exc}", None)
        problems = [(f"{k} {got[k]} != {v}", None)
                    for k, v in self.expected().items() if got[k] != v]
        if self.aut_order is not None:
            if (got["aut_order"], got["aut_type"]) != (self.aut_order, self.aut_type):
                problems.append((f"Aut {got['aut_type']} of order {got['aut_order']}, expected "
                                 f"{self.aut_type} of order {self.aut_order}", None))
        elif got["darts"] % got["aut_order"]:
            problems.append((f"|Aut| {got['aut_order']} does not divide {got['darts']}", None))
        return _failure(problems)

    def replay(self, tr):
        args = cli.build_parser().parse_args(self.argv)
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
        with tr.span("dessin.parse"):
            d = dd.parse_dessin(text)
        with tr.span("dessin.topology"):
            g = dd.genus(d)
            p = dd.passport(d)
            tri = dd.triangulate(d)
        with tr.span("dessin.automorphisms"):
            aut = dd.automorphisms(d)
        with tr.span("dessin.classify"):
            aut_type = dd.classify_perm_group(aut)
        tr.count("dessin.darts", d.dart_count)
        tr.count("dessin.aut_order", aut.order)
        return {"darts": d.dart_count, "genus": g,
                "passport": [p.degree, list(p.white_degrees), list(p.black_degrees),
                             list(p.face_half_degrees)],
                "triangles": tri.triangle_count, "butterflies": tri.butterfly_count,
                "aut_order": aut.order, "aut_type": str(aut_type)}


# ---------------------------------------------------------------------------
# dessins verify

@dataclass
class VerifyOp:
    label: str
    scope: str
    seed: int
    kind: str = field(init=False, default="verify")
    # verify prints elapsed times, so its bytes differ from run to run
    deterministic: bool = field(init=False, default=False)

    @property
    def argv(self) -> list[str]:
        return ["verify", self.scope, "--seed", str(self.seed)]

    def execute(self) -> Outcome:
        return call_cli(self.argv)

    def summary(self, out: Outcome):
        return [(int(line.split()[2].rstrip(":")), line.startswith("[PASS]"))
                for line in out.stdout.splitlines() if line.startswith("[")]

    def check(self, out: Outcome) -> Failure | None:
        n = VERIFY_CHECKS[self.scope]
        last = out.stdout.strip().splitlines()[-1:] or [""]
        if out.rc != 0 or last[0] != f"{n}/{n} checks passed":
            return Failure(out.error or f"exit {out.rc}: {last[0]!r}", None)
        return None

    def replay(self, tr):
        """run_checks as the CLI calls it, with every check timed in its own span."""
        args = cli.build_parser().parse_args(self.argv)
        originals = {name: fn for name, fn in vars(verification).items()
                     if name.startswith("check_") and callable(fn)}

        def timed(fn):
            def wrapper(*a, **kw):
                start = time.perf_counter()
                res = fn(*a, **kw)
                tr.record(f"verification.check_{res.criterion:02d}", start, time.perf_counter())
                return res
            return wrapper

        try:
            for name, fn in originals.items():
                setattr(verification, name, timed(fn))
            results = verification.run_checks(args.scope, seed=args.seed, perturb=args.perturb)
        finally:
            for name, fn in originals.items():
                setattr(verification, name, fn)
        return [(r.criterion, r.passed) for r in results]


# ---------------------------------------------------------------------------
# dessins sc-demo

def _on_segment(p: complex, a: complex, b: complex) -> bool:
    u = (b - a) / abs(b - a)
    t = ((p - a) / u).real
    dist = abs(((p - a) / u).imag)
    return dist <= SIDE_TOL and -SIDE_TOL <= t <= abs(b - a) + SIDE_TOL


# Each boundary arc of the half-plane and the triangle side it must land on;
# the triangle is (0, 1, -i sqrt 3).
_SIDES = {
    "segment(-1,0) -> side(1,0)": (1 + 0j, 0j),
    "ray(0,+inf) -> side(0,v_inf)": (0j, -1j * SQRT3),
    "ray(-inf,-1) -> side(1,v_inf)": (1 + 0j, -1j * SQRT3),
}


@dataclass
class ScDemoOp:
    label: str
    samples: int
    out_path: str
    kind: str = field(init=False, default="sc-demo")
    deterministic: bool = field(init=False, default=True)

    @property
    def argv(self) -> list[str]:
        return ["sc-demo", "--samples", str(self.samples), "--out", self.out_path]

    def execute(self) -> Outcome:
        return call_cli(self.argv)

    def digest(self, out: Outcome) -> str:
        return _sha(out.stdout) + _sha(_read(self.out_path))

    def summary(self, out: Outcome):
        return {"rc": out.rc, "sha": _sha(_read(self.out_path))}

    def check(self, out: Outcome) -> Failure | None:
        if out.rc != 0:
            return Failure(out.error or f"exit {out.rc}: {out.stderr.strip()}", None)
        try:
            data = json.loads(_read(self.out_path))
            arcs = {arc["arc"]: arc["samples"] for arc in data["boundary_correspondence"]}
            problems = []
            if set(arcs) != set(_SIDES):
                problems.append((f"arcs {sorted(arcs)}", None))
            for name, (a, b) in _SIDES.items():
                pts = [complex(s["re"], s["im"]) for s in arcs.get(name, [])]
                if len(pts) != self.samples:
                    problems.append((f"{name}: {len(pts)} samples", None))
                off = [p for p in pts if not _on_segment(p, a, b)]
                if off:
                    problems.append((f"{name}: {len(off)} images off the side, e.g. {off[0]}", None))
        except (ValueError, KeyError, TypeError) as exc:
            return Failure(f"malformed output: {type(exc).__name__}: {exc}", None)
        return _failure(problems)

    def replay(self, tr):
        args = cli.build_parser().parse_args(self.argv)
        with tr.span("schwarz_christoffel.triangle_map"):
            tm = sc.triangle_map()
        with tr.span("schwarz_christoffel.boundary"):
            arcs = sc.boundary_correspondence(args.samples)
        tr.count("schwarz_christoffel.points", 3 * args.samples)
        payload = {
            "triangle": {
                "prevertices": [0.0, -1.0, "inf"],
                "vertices": [[v.real, v.imag] for v in tm.vertices],
                "angles": list(tm.angles),
                "constant": [tm.constant.real, tm.constant.imag],
            },
            "boundary_correspondence": arcs,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return {"rc": 0, "sha": _sha(text)}


# ---------------------------------------------------------------------------
# triangle-map library batches

def _untraced(name: str):
    return contextlib.nullcontext()


def call_library(fn) -> Outcome:
    try:
        return Outcome(rc=0, value=fn())
    except Exception as exc:  # a library error fails the op; record it
        return Outcome(error=f"{type(exc).__name__}: {exc}")


@dataclass
class InverseBatchOp:
    """Newton inverse then forward quadrature: w -> z = F^-1(w) -> F(z)."""
    label: str
    points: list[complex]  # inside the triangle
    kind: str = field(init=False, default="sc-inverse")
    deterministic: bool = field(init=False, default=True)

    def _run(self, span=_untraced):
        with span("schwarz_christoffel.inverse"):
            zs = [sc.sc_inverse(w) for w in self.points]
        with span("schwarz_christoffel.forward"):
            ws = [sc.sc_forward(z) for z in zs]
        return zs, ws

    def execute(self) -> Outcome:
        return call_library(self._run)

    def digest(self, out: Outcome) -> str:
        return _sha(repr(out.value))

    def summary(self, out: Outcome):
        return out.value if out.error is None else out.error.split(":")[0]

    def check(self, out: Outcome) -> Failure | None:
        if out.error is not None:
            return Failure(out.error, None)
        zs, ws = out.value
        worst = max(abs(w2 - w) for w, w2 in zip(self.points, ws))
        problems = []
        if not worst < ROUND_TRIP_TOL:
            problems.append((f"round trip error {worst:.3g}", None))
        if any(z.imag < 0 for z in zs):
            problems.append(("inverse left the closed upper half-plane", None))
        return _failure(problems)

    def replay(self, tr):
        tr.count("schwarz_christoffel.points", len(self.points))
        tr.count("schwarz_christoffel.inverse.calls", len(self.points))
        tr.count("schwarz_christoffel.forward.calls", len(self.points))
        try:
            return self._run(tr.span)
        except DessinsError as exc:
            return type(exc).__name__


def mirror(p: complex, a: complex, b: complex) -> complex:
    u = (b - a) / abs(b - a)
    return a + u * ((p - a) / u).conjugate()


@dataclass
class ButterflyBatchOp:
    """Butterfly covering on both halves of the doubled triangle."""
    label: str
    points: list[complex]
    mirrored: list[bool]  # True: the point lies in the mirror triangle
    kind: str = field(init=False, default="butterfly")
    deterministic: bool = field(init=False, default=True)

    def _run(self):
        return [sc.butterfly_belyi(p) for p in self.points]

    def execute(self) -> Outcome:
        return call_library(self._run)

    def digest(self, out: Outcome) -> str:
        return _sha(repr([(s.is_infinity, s.z) for s in out.value]))

    def summary(self, out: Outcome):
        if out.error is not None:
            return out.error.split(":")[0]
        return [(s.is_infinity, s.z) for s in out.value]

    def check(self, out: Outcome) -> Failure | None:
        """Undo the covering: S -> zeta = S / (1 - S) -> F(zeta) must give the point back."""
        if out.error is not None:
            return Failure(out.error, None)
        worst = 0.0
        for p, mirrored, image in zip(self.points, self.mirrored, out.value):
            if image.is_infinity:
                return Failure(f"interior point {p} mapped to infinity", None)
            s = image.z.conjugate() if mirrored else image.z
            zeta = s / (1.0 - s)
            if zeta.imag < -1e-12:
                return Failure(f"{p} mapped to the wrong hemisphere", None)
            target = mirror(p, 1 + 0j, -1j * SQRT3) if mirrored else p
            worst = max(worst, abs(sc.sc_forward(complex(zeta.real, max(zeta.imag, 0.0)))
                                   - target))
        if not worst < ROUND_TRIP_TOL:
            return Failure(f"round trip error {worst:.3g}", None)
        return None

    def replay(self, tr):
        tr.count("schwarz_christoffel.points", len(self.points))
        tr.count("schwarz_christoffel.butterfly.calls", len(self.points))
        try:
            with tr.span("schwarz_christoffel.butterfly"):
                images = self._run()
        except DessinsError as exc:
            return type(exc).__name__
        return [(s.is_infinity, s.z) for s in images]
