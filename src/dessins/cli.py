"""Command-line interface.

Subcommands:

* ``info PATH`` — topology, passport and automorphism group of a dessin;
* ``metric`` — build one of the four sphere metrics for a symmetry group
  (given as a type tag, generator matrices, or a dessin plus generators)
  and emit a sampled grid with a JSON run report;
* ``verify [SCOPE]`` — run the property suites (groups, metrics, sc, all);
* ``sc-demo`` — triangle-map geometry and boundary correspondence as JSON.

Exit codes: 0 success, 1 verification failure, 2 input error (including
a size too large to allocate and a metric kernel overflow), 3 cyclic-group
exclusion, 4 genus mismatch.  A package error carries its code as
``exit_code``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import dessin as dd
from . import metrics as mt
from . import schwarz_christoffel as sc
from .errors import DessinsError, GenusMismatch, InfiniteGroup, MalformedInput
from .finite_groups import (DEFAULT_CLOSURE_CAP, closure, conjugator_well_defined,
                            is_in_SO3)
from .grouptypes import parse_group_tag
from .moebius import MoebiusTransform, element_orders, standard_generators
from .verification import run_checks

_CONSTRUCTIONS = {
    "average": mt.averaged_metric,
    "conjugate": mt.conjugated_metric,
    "hermitian": mt.hermitian_metric,
    "orbit": mt.orbit_triple_metric,
}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MalformedInput(f"cannot write {path}: {exc}") from exc


def _dessin_summary(d: dd.Dessin) -> dict:
    """Genus, passport and automorphism group of a dessin, as the metric report lists them."""
    p = dd.passport(d)
    aut = dd.automorphisms(d)
    return {
        "darts": d.dart_count,
        "genus": dd.genus(d),
        "passport": {"degree": p.degree,
                     "white": list(p.white_degrees),
                     "black": list(p.black_degrees),
                     "faces": list(p.face_half_degrees)},
        "automorphism_order": aut.order,
        "automorphism_type": str(dd.classify_perm_group(aut)),
    }


def cmd_info(args) -> int:
    d = dd.parse_dessin(_read_text(args.path))
    summary = _dessin_summary(d)
    g, p = summary["genus"], summary["passport"]

    def fmt(ms):
        return "[" + ",".join(str(x) for x in ms) + "]"

    print(f"darts: {summary['darts']}")
    print(f"genus: {g}")
    print(f"passport: degree {p['degree']}; white {fmt(p['white'])}; "
          f"black {fmt(p['black'])}; faces {fmt(p['faces'])}")
    # every dart carries two triangles and one butterfly (see dd.triangulate)
    print(f"triangulation: {2 * d.dart_count} triangles, {d.dart_count} butterflies")
    print(f"automorphisms: order {summary['automorphism_order']}, "
          f"type {summary['automorphism_type']}")
    if g != 0:
        print(f"note: genus {g} surface; the genus-0 metric constructions "
              "(average/conjugate/hermitian/orbit) do not apply")
    return 0


def _load_group(args):
    """Group from --group tag or --generators file, with the dessin context."""
    summary = None
    if args.path is not None:
        d = dd.parse_dessin(_read_text(args.path))
        g = dd.genus(d)
        if g != 0:
            raise GenusMismatch(f"dessin has genus {g}; metrics need genus 0")
        summary = _dessin_summary(d)
    cap = DEFAULT_CLOSURE_CAP
    if args.group:
        gens = standard_generators(parse_group_tag(args.group))
    elif args.generators:
        data = dd.load_json(_read_text(args.generators))
        if isinstance(data, dict) and "elements" not in data:
            raise MalformedInput("generator object has no 'elements' list")
        entries = data["elements"] if isinstance(data, dict) else data
        if not isinstance(entries, list):
            raise MalformedInput("generators must be a list, or an object whose 'elements' is one")
        gens = [MoebiusTransform.from_entries(e) for e in entries]
        # closure registers a repeated entry once, so a serialized group closes
        # within its distinct entries and the identity
        cap = max(DEFAULT_CLOSURE_CAP, len({m.matrix.tobytes() for m in gens}) + 1)
        orders = element_orders(np.array([m.matrix for m in gens]).reshape(-1, 2, 2), cap)
        if not orders.all():
            raise MalformedInput(f"generator {int(np.argmin(orders)) + 1} has no finite "
                                 f"order up to {cap}")
    else:
        raise MalformedInput(
            "a Moebius realization is required: pass --group TAG or --generators FILE")
    try:
        group = closure(gens, cap)
    except InfiniteGroup as exc:
        if args.group:  # a tag keeps its traceback until the cap fix of ROADMAP item 1
            raise
        raise MalformedInput(f"the generators do not close: {exc}") from exc
    warnings = []
    if summary is not None and group.order != summary["automorphism_order"]:
        warnings.append(
            f"group order {group.order} differs from the dessin's automorphism "
            f"order {summary['automorphism_order']}")
    return group, summary, warnings


def cmd_metric(args) -> int:
    group, dessin_summary, warnings = _load_group(args)
    build = _CONSTRUCTIONS[args.construction]
    if group.type_tag.is_cyclic and args.construction == "orbit":
        warnings.append("cyclic symmetry: the orbit construction returns the round metric")
    if args.construction == "orbit":
        warnings.append("orbit triples are anchored at (0, 1, infinity), "
                        "ordered by decreasing orbit size")
    metric = build(group)

    columns = mt.metric_grid_columns(metric, n=args.grid)
    out_path = args.out or f"metric_grid.{args.format}"
    payload = (mt.format_columns_csv if args.format == "csv" else mt.format_columns_json)(columns)

    curvatures = columns[4]
    curvature_min, curvature_max = float(curvatures.min()), float(curvatures.max())
    diagnostics = {
        "invariance_defect": mt.invariance_defect(metric, group, 200),
        "curvature_min": curvature_min,
        "curvature_max": curvature_max,
        "curvature_spread": curvature_max - curvature_min,
    }
    if args.construction == "conjugate":
        diagnostics["well_definedness_distance"] = conjugator_well_defined(
            group, trials=2, seed=args.seed)
        if mt.metric_distance(metric, mt.round_metric(), 200) < 1e-9:
            warnings.append("metric coincides with the round sphere metric")
    if is_in_SO3(group, 1e-8) and args.construction in ("average", "hermitian"):
        warnings.append("group already consists of rotations; metric is round")
    _write_text(out_path, payload)  # only once every diagnostic succeeded

    report = {
        "construction": args.construction,
        "group": {"order": group.order, "type": str(group.type_tag)},
        "dessin": dessin_summary,
        "grid": {"path": out_path, "format": args.format, "size": args.grid,
                 "rows": len(curvatures)},
        "seed": args.seed,
        "diagnostics": diagnostics,
        "warnings": warnings,
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_verify(args) -> int:
    results = run_checks(args.scope, seed=args.seed, perturb=args.perturb)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


_SC_SAMPLE = '\n        {\n          "im": %s,\n          "re": %s,\n          "x": %s\n        },'


def _sc_demo_text(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) of an sc-demo payload.

    With indent, json runs its pure-Python encoder, so each arc's samples go
    through one row template instead; %s writes a float as its repr, as json does.
    """
    arcs = []
    for arc in payload["boundary_correspondence"]:
        values = [v for s in arc["samples"] for v in (s["im"], s["re"], s["x"])]
        if not math.isfinite(sum(values)):  # the sum is finite only if every value is
            values = [v if math.isfinite(v) else mt.json_float(v) for v in values]
        rows = (_SC_SAMPLE * len(arc["samples"]) % tuple(values))[:-1]
        arcs.append('\n    {\n      "arc": %s,\n      "samples": %s\n    },' % (
            json.dumps(arc["arc"]), "[" + rows + "\n      ]" if rows else "[]"))
    arcs = "[" + "".join(arcs)[:-1] + "\n  ]" if arcs else "[]"
    triangle = json.dumps(payload["triangle"], sort_keys=True, indent=2)
    return '{\n  "boundary_correspondence": %s,\n  "triangle": %s\n}' % (
        arcs, triangle.replace("\n", "\n  "))


def cmd_sc_demo(args) -> int:
    tm = sc.triangle_map()
    payload = {
        "triangle": {
            "prevertices": [0.0, -1.0, "inf"],
            "vertices": [[v.real, v.imag] for v in tm.vertices],
            "angles": list(tm.angles),
            "constant": [tm.constant.real, tm.constant.imag],
        },
        "boundary_correspondence": sc.boundary_correspondence(args.samples),
    }
    text = _sc_demo_text(payload)
    if args.out:
        _write_text(args.out, text + "\n")
    else:
        print(text)
    return 0


def _int_at_least(low: int):
    """argparse type: an int >= low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value
    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dessins",
        description="dessins, finite Moebius groups and canonical sphere metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="topology report for a dessin file")
    p_info.add_argument("path")
    p_info.set_defaults(func=cmd_info)

    p_metric = sub.add_parser("metric", help="build and sample a canonical metric")
    p_metric.add_argument("path", nargs="?", default=None,
                          help="optional dessin file (genus 0 required)")
    realization = p_metric.add_mutually_exclusive_group()
    realization.add_argument("--group", default=None,
                             help="group type tag, e.g. C5, D3, A4, S4, A5")
    realization.add_argument("--generators", default=None,
                             help="JSON file with generator matrices")
    p_metric.add_argument("--construction", default="conjugate",
                          choices=sorted(_CONSTRUCTIONS))
    p_metric.add_argument("--grid", type=_int_at_least(3), default=40, metavar="N",
                          help="grid points per axis, at least 3")
    p_metric.add_argument("--seed", type=_int_at_least(0), default=0,
                          help="conjugator seed, at least 0")
    p_metric.add_argument("--out", default=None, metavar="PATH")
    p_metric.add_argument("--format", default="csv", choices=("csv", "json"))
    # the curvature is exact; only the stencil replay and probe in perfbench/ops.py read args.step
    p_metric.set_defaults(func=cmd_metric, step=mt.DEFAULT_CURVATURE_STEP)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("scope", nargs="?", default="all",
                          choices=("groups", "metrics", "sc", "all"))
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0,
                          help="sampling seed, at least 0")
    p_verify.add_argument("--perturb", type=float, default=None,
                          help="test hook: scale one generator entry to force failures")
    p_verify.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("sc-demo", help="triangle map geometry as JSON")
    p_demo.add_argument("--samples", type=_int_at_least(1), default=30,
                        help="samples per boundary side, at least 1")
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(func=cmd_sc_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfiniteGroup:
        # a tag past the closure cap is the open cap fix of ROADMAP item 1; until
        # then it stays a traceback, which the benchmark's replay of
        # `metric --group C250` reproduces
        raise
    except DessinsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # raised by the metric kernel on overflow
        print(f"error: floating-point error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy refuses an array too large to allocate
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
