"""Property suites behind the ``verify`` command and the acceptance tests.

Each check exercises one numbered contract of the build: exact group
orders and orbit data, unitarization quality, curvature and invariance of
the metric constructions, dessin topology against hand-derived and
brute-force oracles, and the triangle map's geometry.

The checks that use standard groups read them from one table per
``run_checks`` call, which closes each tag the first time a check asks for
it (criterion 1 fills it with the groups it closes itself); a check called
on its own makes its own table.  Criterion 10 still closes A4 twice from
scratch, since its contract is that two from-scratch runs agree.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import dessin as dd
from . import metrics as mt
from . import permutations as perms
from . import schwarz_christoffel as sc
from .errors import CyclicGroupUnsupported, DessinsError
from .finite_groups import (FiniteMoebiusGroup, closure, conjugate_group,
                            conjugator_well_defined, from_type, is_in_SO3,
                            orbit_analysis, random_conjugator, unitarize)
from .grouptypes import parse_group_tag
from .moebius import MoebiusTransform, chordal_distance, standard_generators

# Conjugators of the property checks have condition numbers up to this.
WIDE_CONDITION = 100.0
# Bound on |K-1| of the conjugated metric's exact grid curvature: the worst
# over 2300 seeds of criterion 4 was 1.1e-11.
CURVATURE_TOL = 1e-10


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.criterion}: {self.name} — {self.detail}"


def _result(criterion: int, name: str, failures: list[str], passed_detail: str) -> CheckResult:
    """The check passes without failures; otherwise its detail joins them with "; "."""
    return CheckResult(criterion, name, not failures,
                       "; ".join(failures) if failures else passed_detail)


class _StandardGroups(dict):
    """Standard groups by tag, each closed by ``from_type`` when first looked up."""

    def __missing__(self, tag: str) -> FiniteMoebiusGroup:
        self[tag] = group = from_type(tag)
        return group


def _conjugates(base: FiniteMoebiusGroup, rng: np.random.Generator) -> list[FiniteMoebiusGroup]:
    """The group and 3 conjugates by conjugators up to WIDE_CONDITION."""
    return [base] + [conjugate_group(base, random_conjugator(rng, WIDE_CONDITION))
                     for _ in range(3)]


# ---------------------------------------------------------------------------
# groups scope

_ORDER_CASES = [("C2", 2), ("C3", 3), ("C5", 5), ("C6", 6),
                ("D2", 4), ("D3", 6), ("D6", 12),
                ("A4", 12), ("S4", 24), ("A5", 60)]


def check_group_orders(perturb: float | None = None, *,
                       groups: _StandardGroups | None = None) -> CheckResult:
    groups = _StandardGroups() if groups is None else groups
    start = time.perf_counter()
    failures = []
    for tag, expected in _ORDER_CASES:
        gens = standard_generators(parse_group_tag(tag))
        if perturb is not None:
            m = gens[-1].matrix.copy()
            m[0, 0] *= perturb
            gens = gens[:-1] + [MoebiusTransform(m)]
        try:
            g = closure(gens)
        except DessinsError as exc:
            failures.append(f"{tag}: {type(exc).__name__}")
            continue
        if perturb is None:
            groups[tag] = g
        if g.order != expected or str(g.type_tag) != tag:
            failures.append(f"{tag}: order {g.order}, tag {g.type_tag}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"elapsed {elapsed:.2f}s >= 10s")
    return _result(1, "standard generator closure orders", failures,
                   f"all closures exact in {elapsed:.2f}s")


_ORBIT_CASES = [("D2", (2, 2, 2)), ("D3", (3, 3, 2)), ("D6", (6, 6, 2)),
                ("A4", (6, 4, 4)), ("S4", (12, 8, 6)), ("A5", (30, 20, 12))]


def check_orbit_signatures(*, groups: _StandardGroups | None = None) -> CheckResult:
    groups = _StandardGroups() if groups is None else groups
    failures = []
    for tag, expected in _ORBIT_CASES:
        data = orbit_analysis(groups[tag])
        if data.sizes != expected:
            failures.append(f"{tag}: sizes {data.sizes}")
        for orbit in data.orbits:
            if len(orbit.points) * orbit.stabilizer_order != data.group_order:
                failures.append(f"{tag}: class formula broken")
    return _result(2, "orbit signatures and class formula", failures, "all signatures exact")


def check_unitarization(seed: int = 0, *,
                        groups: _StandardGroups | None = None) -> CheckResult:
    groups = _StandardGroups() if groups is None else groups
    rng = np.random.default_rng(seed)
    failures = []
    for tag in ("D4", "A4", "S4", "A5"):
        for k, g in enumerate(_conjugates(groups[tag], rng)):
            moved = conjugate_group(g, unitarize(g))
            if not is_in_SO3(moved, 1e-8):
                worst = max(m.unitarity_defect() for m in moved.elements)
                failures.append(f"{tag}#{k}: defect {worst:.2e}")
    return _result(3, "unitarization to projective unitarity 1e-8", failures,
                   "all conjugates unitarized")


def check_well_definedness(seed: int = 0, *,
                           groups: _StandardGroups | None = None) -> CheckResult:
    groups = _StandardGroups() if groups is None else groups
    failures = []
    for tag in ("A4", "S4", "D3"):
        spread = conjugator_well_defined(groups[tag], trials=3, seed=seed)
        if spread >= 1e-6:
            failures.append(f"{tag}: spread {spread:.2e}")
    try:
        conjugator_well_defined(groups["C5"], trials=3, seed=seed)
        failures.append("C5 did not raise CyclicGroupUnsupported")
    except CyclicGroupUnsupported:
        pass
    return _result(6, "conjugated metric independent of the conjugator", failures,
                   "spreads < 1e-6, cyclic case rejected")


_REFERENCE_DESSINS = [
    # (json text, genus, degree, white, black, faces, |Aut|)
    ('{"darts":2,"sigma_white":[[1,2]],"sigma_black":[[1,2]]}',
     0, 2, (2,), (2,), (1, 1), 2),
    ('{"darts":1,"sigma_white":[],"sigma_black":[]}',
     0, 1, (1,), (1,), (1,), 1),
    ('{"darts":4,"sigma_white":[[1,2,3,4]],"sigma_black":[[1,2,3,4]]}',
     1, 4, (4,), (4,), (2, 2), 4),
]


def _random_transitive_dessin(rng, max_darts: int = 10) -> dd.Dessin:
    while True:
        n = int(rng.integers(2, max_darts + 1))
        sw = tuple(int(x) for x in rng.permutation(n))
        sb = tuple(int(x) for x in rng.permutation(n))
        if perms.is_transitive((sw, sb), n):
            return dd.Dessin(n, sw, sb)


def check_dessin_topology(seed: int = 0) -> CheckResult:
    failures = []
    for text, g, deg, white, black, faces, aut in _REFERENCE_DESSINS:
        d = dd.parse_dessin(text)
        p = dd.passport(d)
        got = (dd.genus(d), p.degree, p.white_degrees, p.black_degrees,
               p.face_half_degrees, dd.automorphisms(d).order)
        if got != (g, deg, white, black, faces, aut):
            failures.append(f"reference dessin mismatch: {got}")
        tri = dd.triangulate(d)
        if tri.triangle_count != 2 * d.dart_count or tri.butterfly_count != d.dart_count:
            failures.append("triangulation counts wrong")
    rng = np.random.default_rng(seed)
    for _ in range(20):
        d = _random_transitive_dessin(rng)
        if not dd.riemann_hurwitz_holds(d):
            failures.append(f"Riemann-Hurwitz fails on {d}")
        if dd.genus(d) < 0:
            failures.append(f"negative genus on {d}")
        aut_group = dd.automorphisms(d)
        if d.dart_count % aut_group.order != 0:
            failures.append(f"|Aut| does not divide darts on {d}")
        if d.dart_count <= 7 and aut_group != dd.brute_force_automorphisms(d):
            failures.append(f"centralizer mismatch on {d}")
    return _result(8, "dessin topology and automorphism oracles", failures,
                   "references, Riemann-Hurwitz and brute force agree")


# ---------------------------------------------------------------------------
# metrics scope

_NON_CYCLIC = ("D2", "D3", "D6", "A4", "S4", "A5")


def check_constant_curvature(seed: int = 0, *,
                             groups: _StandardGroups | None = None) -> CheckResult:
    groups = _StandardGroups() if groups is None else groups
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = []
    for tag in _NON_CYCLIC:
        for k, g in enumerate(_conjugates(groups[tag], rng)):
            curvature = mt.metric_grid_columns(mt.conjugated_metric(g), 40)[4]
            err = float(np.abs(curvature - 1.0).max())
            worst = max(worst, err)
            if err >= CURVATURE_TOL:
                failures.append(f"{tag}#{k}: |K-1| = {err:.2e} >= {CURVATURE_TOL:.0e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"elapsed {elapsed:.1f}s >= 60s")
    return _result(4, "constant curvature 1 of the conjugated metric", failures,
                   f"worst |K-1| = {worst:.2e} < {CURVATURE_TOL:.0e} in {elapsed:.2f}s")


def check_invariance(seed: int = 0, *,
                     groups: _StandardGroups | None = None) -> CheckResult:
    groups = _StandardGroups() if groups is None else groups
    rng = np.random.default_rng(seed)
    failures = []
    worst = {"average": 0.0, "hermitian": 0.0, "conjugate": 0.0}
    cases: list[tuple[str, FiniteMoebiusGroup]] = [
        (tag, groups[tag]) for tag in ("C5", "C6", "D3", "D6", "A4", "S4", "A5")]
    cases += [(f"{tag}~conj", conjugate_group(groups[tag],
                                              random_conjugator(rng, WIDE_CONDITION)))
              for tag in ("D3", "A4", "S4")]
    for name, g in cases:
        d_avg = mt.invariance_defect(mt.averaged_metric(g), g, 200)
        worst["average"] = max(worst["average"], d_avg)
        if d_avg >= 1e-9:
            failures.append(f"average/{name}: {d_avg:.2e}")
        d_her = mt.invariance_defect(mt.hermitian_metric(g), g, 200)
        worst["hermitian"] = max(worst["hermitian"], d_her)
        if d_her >= 1e-9:
            failures.append(f"hermitian/{name}: {d_her:.2e}")
        if not g.type_tag.is_cyclic:
            d_con = mt.invariance_defect(mt.conjugated_metric(g), g, 200)
            worst["conjugate"] = max(worst["conjugate"], d_con)
            if d_con >= 1e-8:
                failures.append(f"conjugate/{name}: {d_con:.2e}")
    return _result(5, "invariance of the three group metrics", failures,
                   "worst defects: " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def check_so3_coincidence(*, groups: _StandardGroups | None = None) -> CheckResult:
    groups = _StandardGroups() if groups is None else groups
    rnd = mt.round_metric()
    failures = []
    for tag in ("C6", "D3", "D6", "A4", "S4", "A5"):
        g = groups[tag]
        if not is_in_SO3(g, 1e-10):
            failures.append(f"{tag}: standard group not unitary")
            continue
        builders = [("average", mt.averaged_metric), ("hermitian", mt.hermitian_metric)]
        if not g.type_tag.is_cyclic:
            builders.append(("conjugate", mt.conjugated_metric))
        for name, build in builders:
            dist = mt.metric_distance(build(g), rnd, 200)
            if dist >= 1e-9:
                failures.append(f"{name}/{tag}: distance {dist:.2e}")
    return _result(7, "rotation groups reproduce the round metric", failures,
                   "constructions 1-3 within 1e-9 of round")


def check_grid_determinism() -> CheckResult:
    def build():
        g = from_type("A4")
        metric = mt.averaged_metric(conjugate_group(g, MoebiusTransform.translation(1 + 1j)))
        columns = mt.metric_grid_columns(metric, n=12)
        rows = mt.metric_grid_rows(metric, n=12)
        return (rows, mt.format_columns_csv(columns), mt.format_columns_json(columns),
                mt.format_grid_csv(rows))
    rows, csv_text, json_text, row_csv = build()
    failures = [] if build()[1:3] == (csv_text, json_text) else ["runs differ"]
    if row_csv != csv_text:
        failures.append("the row writers differ from the column writers")
    from_json = [(e["re"], e["im"], e["chart"], e["rho"], e["curvature"])
                 for e in json.loads(json_text)]
    from_csv = [(float(a), float(b), c, float(d), float(e))
                for a, b, c, d, e in (line.split(",") for line in csv_text.splitlines()[1:])]
    for name, parsed in (("JSON", from_json), ("CSV", from_csv)):
        if repr(parsed) != repr(rows):  # repr tells apart all doubles but NaNs; rows hold none
            failures.append(f"{name} grid does not parse back to the rows bit for bit")
    return _result(10, "grid emission is byte-deterministic", failures,
                   "two from-scratch runs identical as CSV and as JSON, the row and column "
                   "CSV writers identical; both parse back bit for bit")


# ---------------------------------------------------------------------------
# triangle-map scope

def check_triangle_map() -> CheckResult:
    failures = []
    tm = sc.triangle_map()
    eps = 1e-6
    f = sc.sc_forward
    angle_specs = [
        (abs(np.angle((f(eps) - f(0)) / (f(-eps) - f(0)))), np.pi / 2),
        (abs(np.angle((f(-1 + eps) - f(-1)) / (f(-1 - eps) - f(-1)))), np.pi / 3),
        (abs(np.angle((f(1e7) - tm.vertices[2]) / (f(-1e7) - tm.vertices[2]))), np.pi / 6),
    ]
    for got, want in angle_specs:
        if abs(got - want) >= 1e-6:
            failures.append(f"angle {got:.8f} != {want:.8f}")
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.02, 2.5))
        w = f(z)
        if abs(f(sc.sc_inverse(w)) - w) >= 1e-9:
            failures.append(f"round trip fails at z = {z}")
            break
    # Round trips 1e-3 to 1e-9 from each vertex toward the centroid.  Near the
    # pi/3 vertex no double preimage reaches the target to better than about
    # a fifth of that distance, so the strict trip starts from the image of
    # the first preimage.  The butterfly contracts near each vertex, so its
    # sphere point must match that preimage to the Newton tolerance.
    normalize = MoebiusTransform([[1, 0], [1, 1]])
    centroid = sum(tm.vertices) / 3
    for vertex in tm.vertices:
        toward = (centroid - vertex) / abs(centroid - vertex)
        for d in np.geomspace(1e-3, 1e-9, 7).tolist():
            target = vertex + d * toward
            try:
                z = sc.sc_inverse(target)
                w = f(z)
                back = abs(f(sc.sc_inverse(w)) - w)
                gap = chordal_distance(sc.butterfly_belyi(w), normalize.apply(z))
            except DessinsError as exc:
                failures.append(f"round trip raises at w = {target}: {exc}")
                continue
            if abs(w - target) >= 0.5 * d or back >= 1e-9 or gap >= sc.NEWTON_TOL:
                failures.append(f"round trip misses at w = {target}: {abs(w - target):.2e} "
                                f"from it, {back:.2e} back, {gap:.2e} on the sphere")
    v_white, v_center, v_black = tm.vertices
    for vertex, target in ((v_white, 0j), (v_black, 1 + 0j), (v_center, None)):
        image = sc.butterfly_belyi(vertex)
        exact = (image.is_infinity if target is None
                 else (not image.is_infinity and image.z == target))
        if not exact:
            failures.append(f"vertex {vertex} -> {image} not exact")
    direction = (v_black - v_center) / abs(v_black - v_center)
    normal = direction * 1j
    for s in np.linspace(0.05, 0.95, 20):
        base = v_center + s * (v_black - v_center)
        gap = chordal_distance(sc.butterfly_belyi(base + 1e-4 * normal),
                               sc.butterfly_belyi(base - 1e-4 * normal))
        if gap >= 1e-3:
            failures.append(f"gluing gap {gap:.2e} at s = {s:.2f}")
    return _result(9, "triangle map angles, round trips and gluing", failures,
                   "all within tolerance")


# ---------------------------------------------------------------------------
# runner

def run_checks(scope: str = "all", seed: int = 0,
               perturb: float | None = None) -> list[CheckResult]:
    # one table for the run; each check is looked up by name when this call runs it
    groups = _StandardGroups()
    scopes = {
        "groups": [lambda: check_group_orders(perturb, groups=groups),
                   lambda: check_orbit_signatures(groups=groups),
                   lambda: check_unitarization(seed, groups=groups),
                   lambda: check_well_definedness(seed, groups=groups),
                   lambda: check_dessin_topology(seed)],
        "metrics": [lambda: check_constant_curvature(seed, groups=groups),
                    lambda: check_invariance(seed, groups=groups),
                    lambda: check_so3_coincidence(groups=groups),
                    check_grid_determinism],
        "sc": [check_triangle_map],
    }
    if scope != "all" and scope not in scopes:
        raise ValueError(f"unknown scope {scope!r}; choose groups, metrics, sc or all")
    names = list(scopes) if scope == "all" else [scope]
    return [check() for name in names for check in scopes[name]]
