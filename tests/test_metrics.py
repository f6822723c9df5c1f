import itertools
import json
import math
import struct
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dessins import finite_groups as fg
from dessins import metrics as mt
from dessins import moebius as mb
from dessins.errors import CyclicGroupUnsupported, StencilOutOfDomain
from dessins.verification import WIDE_CONDITION, check_invariance


def chart_compatibility_defect(g, samples=64):
    """Max relative mismatch of rho(z) vs rho_inf(1/z)/|z|^4 on 0.5 <= |z| <= 2."""
    radii = np.linspace(0.5, 2.0, 8)
    angles = np.linspace(0.0, 2.0 * np.pi, max(2, samples // 8), endpoint=False)
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    lhs = g.rho(z)
    rhs = g.rho_at_infinity(1.0 / z) / np.abs(z) ** 4
    return float(np.max(np.abs(lhs - rhs) / rhs))


def involution_group():
    # {id, z -> 1/(4z)}: the conjugate of z -> 1/z by z -> 2z
    return fg.closure([mb.MoebiusTransform([[0, 0.5], [2, 0]])])


def test_round_metric_values():
    rnd = mt.round_metric()
    assert rnd.rho(0.0) == 4.0
    assert rnd.rho(1.0) == 1.0
    assert rnd.rho_at_infinity(0.0) == 4.0
    assert chart_compatibility_defect(rnd) < 1e-12
    z = np.array([0.5 + 0.5j, 2.0 + 0j])
    assert np.allclose(rnd.rho(z), 4.0 / (1 + np.abs(z) ** 2) ** 2)


def test_pullback_identity_and_scaling():
    rnd = mt.round_metric()
    g = mt.pullback(mb.MoebiusTransform.identity(), rnd)
    assert abs(g.rho(0.7 + 0.1j) - rnd.rho(0.7 + 0.1j)) < 1e-14
    doubled = mt.pullback(mb.MoebiusTransform.scaling(2.0), rnd)
    assert abs(doubled.rho(1.0) - 16.0 / 25.0) < 1e-14


def test_pullback_by_rotation_preserves_round():
    rnd = mt.round_metric()
    for gen in mb.standard_generators(fg.parse_group_tag("S4")):
        assert mt.metric_distance(mt.pullback(gen, rnd), rnd, 100) < 1e-10


def test_pullback_functoriality():
    rng = np.random.default_rng(7)
    d3 = fg.conjugate_group(fg.from_type("D3"), mb.MoebiusTransform([[1.1, 0.2j], [0.1, 0.9]]))
    zf, uf = mt.sphere_samples(40)
    for base in (mt.round_metric(), mt.hermitian_metric(d3)):
        for _ in range(20):
            m1 = fg.random_conjugator(rng, 20.0)
            m2 = fg.random_conjugator(rng, 20.0)
            lhs = mt.pullback(m1.compose(m2), base)
            rhs = mt.pullback(m2, mt.pullback(m1, base))
            num = np.abs(np.asarray(lhs.rho(zf)) - np.asarray(rhs.rho(zf)))
            assert float(np.max(num / np.asarray(rhs.rho(zf)))) < 1e-10
            num = np.abs(np.asarray(lhs.rho_at_infinity(uf)) - np.asarray(rhs.rho_at_infinity(uf)))
            assert float(np.max(num / np.asarray(rhs.rho_at_infinity(uf)))) < 1e-10


def test_pullback_with_form_matches_chain_rule():
    # rho_h(z) = rho_g(m(z)) |m'(z)|^2, with rho_g read in whichever chart holds m(z)
    rng = np.random.default_rng(11)
    g = mt.hermitian_metric(fg.conjugate_group(fg.from_type("A4"), fg.random_conjugator(rng, 10.0)))
    for _ in range(10):
        m = fg.random_conjugator(rng, 20.0)
        h = mt.pullback(m, g)
        for z in mt.grid_points(6):
            w = m(z).z
            target = g.rho(w) if abs(w) <= 1.0 else g.rho_at_infinity(1.0 / w) / abs(w) ** 4
            expected = target * abs(m.derivative(z)) ** 2
            assert abs(h.rho(z) - expected) < 1e-10 * expected


def test_pullback_total_at_poles():
    # z -> 1/z sends 0 to infinity; the factor must still evaluate there
    g = mt.pullback(mb.MoebiusTransform.inversion(), mt.round_metric())
    assert np.isfinite(g.rho(0.0)) and g.rho(0.0) > 0
    assert abs(g.rho(0.0) - 4.0) < 1e-14  # inversion preserves the round metric


def test_averaged_metric_trivial_group_is_round():
    g = fg.closure([])
    assert mt.metric_distance(mt.averaged_metric(g), mt.round_metric(), 100) < 1e-14


def test_averaged_metric_rotation_group_is_round():
    g = fg.from_type("D4")
    assert mt.metric_distance(mt.averaged_metric(g), mt.round_metric(), 200) < 1e-10


def test_averaged_metric_two_element_group():
    g = involution_group()
    m = mt.averaged_metric(g)
    # two-term average at z = 1, frozen from the closed form:
    # (4/(1+1)^2 + 4/(1/4^2+4)... the pulled factor is 4/((1/2)^2+2^2)^2
    expected = Fraction(1, 2) * (1 + Fraction(64, 289))
    assert abs(m.rho(1.0) - float(expected)) < 1e-14
    assert mt.invariance_defect(m, g, 200) < 1e-9
    assert mt.metric_distance(m, mt.round_metric(), 200) > 0.01
    assert chart_compatibility_defect(m) < 1e-9


def test_conjugated_metric_rotation_group_is_round():
    assert mt.metric_distance(mt.conjugated_metric(fg.from_type("S4")),
                              mt.round_metric(), 200) < 1e-10


def test_conjugated_metric_translated_group():
    g = fg.conjugate_group(fg.from_type("A4"),
                           mb.MoebiusTransform.translation(1 + 1j))
    metric = mt.conjugated_metric(g)
    grid = mt.grid_points(40)
    for chart in ("finite", "infinity"):
        assert np.abs(mt.curvature_samples(metric, chart, grid, 1e-3) - 1).max() < 1e-4
    assert mt.invariance_defect(metric, g, 200) < 1e-8
    assert chart_compatibility_defect(metric) < 1e-9


def test_conjugated_metric_rejects_cyclic():
    with pytest.raises(CyclicGroupUnsupported):
        mt.conjugated_metric(fg.from_type("C3"))


def test_hermitian_metric_trivial_and_rotations():
    rnd = mt.round_metric()
    assert mt.metric_distance(mt.hermitian_metric(fg.closure([])), rnd, 100) < 1e-12
    assert mt.metric_distance(mt.hermitian_metric(fg.from_type("D4")), rnd, 200) < 1e-9
    assert mt.metric_distance(mt.hermitian_metric(fg.from_type("A5")), rnd, 200) < 1e-9


def test_hermitian_metric_involution_group():
    g = involution_group()
    m = mt.hermitian_metric(g)
    assert mt.invariance_defect(m, g, 200) < 1e-8
    ks = mt.curvature_samples(m, "finite", mt.grid_points(20))
    assert ks.max() - ks.min() > 1e-3
    assert chart_compatibility_defect(m) < 1e-9


def test_orbit_triple_metric_cyclic_fallback():
    assert mt.metric_distance(mt.orbit_triple_metric(fg.from_type("C7")),
                              mt.round_metric(), 100) < 1e-14


def test_orbit_triple_counts():
    # equal-size orbit pair doubles the sum; all sizes distinct keeps it single
    assert mt.orbit_triple_matrices(fg.from_type("A4")).shape[0] == 2 * 6 * 4 * 4
    assert mt.orbit_triple_matrices(fg.from_type("S4")).shape[0] == 12 * 8 * 6
    assert mt.orbit_triple_matrices(fg.from_type("D2")).shape[0] == 6 * 2 * 2 * 2


def test_orbit_triple_metric_values():
    a4 = mt.orbit_triple_metric(fg.from_type("A4"))
    grid = mt.grid_points(20)
    assert np.all(np.asarray(a4.rho(grid)) > 0)
    assert chart_compatibility_defect(a4) < 1e-9
    s4 = mt.orbit_triple_metric(fg.from_type("S4"))
    ks = mt.curvature_samples(s4, "finite", grid)
    assert ks.max() - ks.min() > 1e-3


def _oracle_orbit_triple_matrices(g):
    """The per-triple version: one from_triple transformation per orbit triple."""
    data = fg.orbit_analysis(g)
    sizes = data.sizes
    mats = []
    for assign in itertools.permutations(range(3)):
        if all(sizes[assign[i]] == sizes[i] for i in range(3)):
            triples = itertools.product(*(data.orbits[k].points for k in assign))
            mats.extend(mb.from_triple(*t).matrix for t in triples)
    return np.array(mats)


@pytest.mark.parametrize("tag", ["D2", "D3", "D4", "D5", "D6", "A4", "S4", "A5"])
def test_orbit_triple_matrices_match_from_triple(tag):
    # A4 and the dihedral groups have two orbits of one size, so their roles swap
    rng = np.random.default_rng(sum(map(ord, tag)))
    base = fg.from_type(tag)
    for g in [base] + [fg.conjugate_group(base, fg.random_conjugator(rng, c)) for c in (2.5, 100.0)]:
        got, want = mt.orbit_triple_matrices(g), _oracle_orbit_triple_matrices(g)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_curvature_reference_values():
    rnd = mt.round_metric()
    assert abs(mt.curvature(rnd, 0.3 + 0.2j) - 1.0) < 1e-12
    rot = mt.pullback(mb.MoebiusTransform([[1, 1j], [1j, 1]]), rnd)
    assert abs(mt.curvature(rot, 0.1 - 0.4j) - 1.0) < 1e-12
    # the stencil oracle takes any object with rho and rho_at_infinity
    flat = SimpleNamespace(rho=lambda z: np.ones_like(np.asarray(z, complex), dtype=float),
                           rho_at_infinity=lambda u: np.ones_like(np.asarray(u, complex), dtype=float))
    assert abs(mt.curvature_samples(flat, "finite", 0.2 + 0.1j)[0]) < 1e-8


def test_curvature_chart_switching():
    rnd = mt.round_metric()
    assert abs(mt.curvature(rnd, 5.0 + 2j) - 1.0) < 1e-12
    assert abs(mt.curvature(rnd, mb.INFINITY) - 1.0) < 1e-12


@pytest.mark.parametrize("step, coords, message", [
    pytest.param(1e300, None, "conformal factor undefined", id="1e300"),
    pytest.param(1e-20, None, "step 1e-20 too small: a stencil point equals its centre", id="1e-20"),
    pytest.param(1e-17, None, "step 1e-17 too small: a stencil point equals its centre", id="1e-17"),
    pytest.param(1e-200, [0j], "curvature not finite", id="1e-200"),
])
def test_stencil_step_out_of_domain_raises(step, coords, message):
    # the stencil leaves the floats at 1e300; x + step == x on the grid at 1e-20 and 1e-17;
    # at 0, h * h underflows at 1e-200: the oracle raises instead of reading a silent 0 or NaN
    metric = mt.conjugated_metric(fg.from_type("A4"))
    coords = mt.grid_points(8) if coords is None else coords
    for chart in ("finite", "infinity"):
        with pytest.raises(StencilOutOfDomain, match=message):
            mt.curvature_samples(metric, chart, coords, step)


def test_curvature_stencil_out_of_domain():
    bad = SimpleNamespace(rho=lambda z: np.real(np.asarray(z, complex)),
                          rho_at_infinity=lambda u: np.ones_like(np.asarray(u, complex), dtype=float))
    with pytest.raises(StencilOutOfDomain):
        mt.curvature_samples(bad, "finite", -0.5 + 0j)


# The kernel's closed-form curvature against the finite-difference oracle.

def _exact_curvature(metric, coords, chart):
    i = mt.CHARTS.index(chart)
    return metric._density(*mt._homogeneous(coords, i), chart=i)


_BUILDS = [mt.averaged_metric, mt.conjugated_metric, mt.hermitian_metric, mt.orbit_triple_metric]


@st.composite
def _metric_chart_points(draw):
    """A metric of any construction on a (conjugated) group, a chart, and points of its unit disc."""
    tag = draw(st.sampled_from(["A4", "S4", "A5", "D2", "D3", "D4", "D5", "D6"]))
    g = fg.from_type(tag)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = fg.conjugate_group(g, fg.random_conjugator(rng, draw(st.floats(1.1, WIDE_CONDITION))))
    build = draw(st.sampled_from(_BUILDS))
    radii = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
    polar = draw(st.lists(st.tuples(radii, st.floats(0.0, 2.0 * np.pi)), min_size=1, max_size=8))
    coords = np.array([r * np.exp(1j * t) for r, t in polar])
    return build.__name__, build(g), draw(st.sampled_from(mt.CHARTS)), coords


def _fsum_density(metric, chart):
    """The metric's density in the named chart, its stack's terms summed correctly rounded."""
    def rho(coords):
        coords = np.asarray(coords, dtype=complex)
        _, _, terms = metric._terms(*mt._homogeneous(coords.ravel(), mt.CHARTS.index(chart)))
        weighted = metric._weights[:, None] * terms
        return np.array([math.fsum(col) for col in weighted.T.tolist()]).reshape(coords.shape)
    return rho


def _richardson(metric, chart, coords, h=1e-3):
    """The stencil's curvature at step h/2, and twice its error bound.

    The stencil at h/2 is off by about (K_h - K_{h/2}) / 3, its O(h^2) error; its rounding
    is at most 8 eps (1 + |log rho| / 2) / (h^2 rho) at each point.  That model takes each
    density to a few ulps, which a BLAS sum over thousands of stack terms is not, so the
    stencils read densities whose terms are summed correctly rounded.
    """
    oracle = SimpleNamespace(rho=_fsum_density(metric, "finite"),
                             rho_at_infinity=_fsum_density(metric, "infinity"))
    coarse = mt.curvature_samples(oracle, chart, coords, h)
    vals = mt._stencil_values(oracle, chart, coords, h / 2)
    fine = mt._laplacian_curvature(vals, h / 2)
    rounding = (8.0 * np.finfo(float).eps * (1.0 + 0.5 * np.abs(np.log(vals)).max(axis=0))
                / ((h / 2) ** 2 * vals[0]))
    return fine, 2.0 * (np.abs(coarse - fine) / 3.0 + rounding)


_A5_ORBIT = mt.orbit_triple_metric(fg.from_type("A5"))


# The stencils at these standard A5 orbit-metric points, with BLAS sums of its
# 7200 terms, missed the bound by 1.4 and 3.1 times
@settings(max_examples=250, deadline=None)
@given(_metric_chart_points())
@example(("orbit_triple_metric", _A5_ORBIT, "infinity",
          np.array([-0.42062835708965873 + 0.676707286119823j])))
@example(("orbit_triple_metric", _A5_ORBIT, "infinity",
          np.array([-0.7750616653503226 + 0.6318855940825572j])))
def test_exact_curvature_matches_richardson_pair_of_stencils(case):
    # the exact value must lie within twice the stencil's error bound
    name, metric, chart, coords = case
    _, exact = _exact_curvature(metric, coords, chart)
    fine, bound = _richardson(metric, chart, coords)
    assert np.all(np.abs(exact - fine) <= bound), (name, chart, exact, fine, bound)


@pytest.mark.parametrize("build", _BUILDS)
@pytest.mark.parametrize("conjugated", [False, True])
def test_curvature_at_a_point_matches_the_stencil_oracle(build, conjugated):
    # the oracle is given the chart curvature() picks: u = 1/z for |z| > 1 and at infinity
    g = fg.from_type("S4")
    if conjugated:
        g = fg.conjugate_group(g, fg.random_conjugator(np.random.default_rng(29), WIDE_CONDITION))
    metric = build(g)
    cases = [(0.3 - 0.2j, "finite", 0.3 - 0.2j), (-1.0 + 0j, "finite", -1.0 + 0j),
             (2.5 + 1j, "infinity", 1 / (2.5 + 1j)), (-40j, "infinity", 1 / -40j),
             (mb.INFINITY, "infinity", 0j)]
    for z, chart, coord in cases:
        fine, bound = _richardson(metric, chart, coord)
        assert abs(mt.curvature(metric, z) - fine[0]) <= bound[0], (z, chart)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["D3", "A4", "S4", "A5"]), st.integers(0, 2**32 - 1),
       st.floats(1.1, 10.0))
def test_curvature_is_one_on_the_round_and_conjugate_metrics(tag, seed, condition):
    # conjugators up to condition 10: wider ones lose digits to the cancellation of ROADMAP item 2
    g = fg.conjugate_group(fg.from_type(tag),
                           fg.random_conjugator(np.random.default_rng(seed), condition))
    points = [0j, 0.3 + 0.2j, 1.0, -0.999j, 1.5 - 2j, 1e6j, mb.INFINITY]
    for metric in (mt.round_metric(), mt.conjugated_metric(g)):
        assert max(abs(mt.curvature(metric, z) - 1.0) for z in points) <= 1e-12


@pytest.mark.parametrize("chart", ["finite", "infinity"])
def test_one_term_stack_has_curvature_one(chart):
    # a one-term stack is the round metric pulled back along one map: K = 4 det(A) / w = 1
    rng = np.random.default_rng(17)
    coords = np.concatenate([mt.grid_points(30), np.exp(2j * np.pi * np.arange(32) / 32)])
    for _ in range(100):
        metric = mt.ConformalMetric(fg.random_conjugator(rng, 10.0).matrix)
        _, curvature = _exact_curvature(metric, coords, chart)
        assert np.abs(curvature - 1.0).max() < 1e-12


@pytest.mark.parametrize("build", _BUILDS)
def test_grid_runs_the_kernel_once_per_chart(build, monkeypatch):
    metric = build(fg.from_type("S4"))
    calls = []
    density = mt.ConformalMetric._density

    def counted(self, p, r, chart=None):
        calls.append((len(p), chart))
        return density(self, p, r, chart)

    def stencil(*args):
        raise AssertionError("the grid evaluated the finite-difference stencil")

    monkeypatch.setattr(mt.ConformalMetric, "_density", counted)
    monkeypatch.setattr(mt, "_stencil_values", stencil)
    columns = mt.metric_grid_columns(metric, 12)
    n = len(mt.grid_points(12))
    assert calls == [(n, 0), (n, 1)]
    assert len(columns[4]) == 2 * n


def test_invariance_defect_reference_cases():
    rnd = mt.round_metric()
    assert mt.invariance_defect(rnd, fg.from_type("D6"), 200) < 1e-10
    assert mt.invariance_defect(rnd, involution_group(), 200) > 0.01


# The seed's invariance defect, kept as the oracle of the sup over the
# generators: the kernel at the samples moved by every element of the group.

def _oracle_moved_point_defect(metric, grp, samples=200):
    p, r = mt._sample_points(samples)
    base = metric._density(p, r)
    worst = 0.0
    for (a, b), (c, d) in grp.stack:
        moved = abs(a * d - b * c) ** 2 * metric._density(a * p + b * r, c * p + d * r)
        worst = max(worst, float(np.max(np.abs(moved - base) / base)))
    return worst


def _criterion_5_groups(seed):
    """The groups of verify criterion 5 at this seed, plus wide conjugates of A5 and D6."""
    rng = np.random.default_rng(seed)
    groups = [fg.from_type(t) for t in ("C5", "C6", "D3", "D6", "A4", "S4", "A5")]
    return groups + [fg.conjugate_group(fg.from_type(t), fg.random_conjugator(rng, WIDE_CONDITION))
                     for t in ("D3", "A4", "S4", "A5", "D6")]


@pytest.mark.parametrize("seed", range(4))
def test_generator_sup_and_moved_point_oracle_agree_on_invariance(seed):
    for g in _criterion_5_groups(seed):
        assert len(g.generators) < g.order
        everything = fg.FiniteMoebiusGroup(g.stack, g.type_tag)  # generated by its whole stack
        builds = [(mt.averaged_metric, 1e-9), (mt.hermitian_metric, 1e-9)]
        if not g.type_tag.is_cyclic:
            builds.append((mt.conjugated_metric, 1e-8))
        for build, tol in builds:
            metric = build(g)
            assert mt.invariance_defect(metric, g, 200) < tol
            assert mt.invariance_defect(metric, everything, 200) < tol
            assert _oracle_moved_point_defect(metric, g, 200) < tol


def test_criterion_5_passes_where_moved_samples_cancelled():
    # verify metrics at this seed draws an A4 conjugate whose moved-sample defect
    # read 1.08e-9 (average) and 1.25e-9 (hermitian), over the 1e-9 bound
    result = check_invariance(476023420)
    assert result.passed, result.detail


def test_invariance_defect_is_the_generator_sup():
    g = involution_group()
    off = fg.FiniteMoebiusGroup(g.stack, g.type_tag,
                                np.array([mb.MoebiusTransform.scaling(2.0).matrix]))
    rnd = mt.round_metric()
    # the same density pulled back along z -> 2z, wherever the group would send it
    expected = mt.metric_distance(mt.pullback(mb.MoebiusTransform.scaling(2.0), rnd), rnd, 200)
    assert mt.invariance_defect(rnd, off, 200) == pytest.approx(expected, rel=1e-12)
    assert mt.invariance_defect(rnd, fg.FiniteMoebiusGroup(g.stack[:1], g.type_tag), 200) == 0.0


@pytest.mark.parametrize("source", ["tag", "conjugate", "json"])
def test_invariance_defect_calls_the_kernel_once_per_generator(source, monkeypatch):
    g = fg.from_type("A5")
    if source == "conjugate":
        g = fg.conjugate_group(g, fg.random_conjugator(np.random.default_rng(3), 10.0))
    elif source == "json":
        g = fg.FiniteMoebiusGroup.from_json(g.to_json())
    metric = mt.hermitian_metric(g)
    calls = []
    density = mt.ConformalMetric._density

    def counted(self, p, r):
        calls.append(len(p))
        return density(self, p, r)

    monkeypatch.setattr(mt.ConformalMetric, "_density", counted)
    assert mt.invariance_defect(metric, g, 200) < 1e-9
    assert len(calls) == 1 + len(g.generators) == (61 if source == "json" else 3)


def test_metric_distance_properties():
    rnd = mt.round_metric()
    assert mt.metric_distance(rnd, rnd, 100) == 0.0
    with pytest.raises(ValueError):
        mt.metric_distance(rnd, rnd, 0)


def test_conjugated_metric_independent_of_preconjugation():
    rng = np.random.default_rng(21)
    base = fg.from_type("A4")
    metrics = []
    for _ in range(2):
        m = fg.random_conjugator(rng)
        moved = fg.conjugate_group(base, m)
        phi = fg.unitarize(moved)
        metrics.append(mt.pullback(phi.compose(m), mt.round_metric()))
    assert mt.metric_distance(metrics[0], metrics[1], 200) < 1e-6


def test_chart_compatibility_for_all_constructions():
    g = fg.conjugate_group(fg.from_type("D3"),
                           mb.MoebiusTransform([[1.1, 0.2j], [0.1, 0.9]]))
    for build in (mt.averaged_metric, mt.conjugated_metric,
                  mt.hermitian_metric, mt.orbit_triple_metric):
        assert chart_compatibility_defect(build(g)) < 1e-9


def test_grid_rows_and_formats():
    rows = mt.metric_grid_rows(mt.round_metric(), n=8)
    csv = mt.format_grid_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "re,im,chart,rho,curvature"
    assert len(lines) == len(rows) + 1
    # 17 significant digits survive a parse round trip
    for text, value in zip(lines[1].split(","), rows[0]):
        if isinstance(value, float):
            assert float(text) == value
    as_json = mt.grid_rows_as_json(rows)
    assert as_json[0].keys() == {"re", "im", "chart", "rho", "curvature"}


def _oracle_grid_csv(rows):
    """The per-row f-string writer, every float formatted on its own."""
    lines = [mt.GRID_HEADER]
    for re_, im_, chart, rho, curv in rows:
        lines.append(f"{re_:.17g},{im_:.17g},{chart},{rho:.17g},{curv:.17g}")
    return "\n".join(lines) + "\n"


def _oracle_grid_json(rows):
    return json.dumps(mt.grid_rows_as_json(rows), sort_keys=True, indent=1) + "\n"


def _columns_of(rows):
    """The five columns of the rows: float64 arrays, and the charts as an object array."""
    re_, im_, chart, rho, curv = zip(*rows) if rows else ((),) * 5
    return (np.array(re_, dtype=float), np.array(im_, dtype=float),
            np.array(chart, dtype=object), np.array(rho, dtype=float), np.array(curv, dtype=float))


def _assert_writers_match_oracles(rows, columns=None):
    """Both column writers and the CSV row adapter give the oracles' bytes."""
    columns = _columns_of(rows) if columns is None else columns
    csv_text, json_text = _oracle_grid_csv(rows), _oracle_grid_json(rows)
    assert mt.format_grid_csv(rows) == csv_text
    assert mt.format_columns_csv(columns) == csv_text
    assert mt.format_columns_json(columns) == json_text


def _grid_rows_and_columns(metric, n):
    rows = mt.metric_grid_rows(metric, n=n)
    columns = mt.metric_grid_columns(metric, n=n)
    assert rows == list(zip(*(np.asarray(col).tolist() for col in columns)))
    return rows, columns


@pytest.mark.parametrize("n", [3, 12, 41, 80])
@pytest.mark.parametrize("build", [mt.averaged_metric, mt.conjugated_metric,
                                   mt.hermitian_metric, mt.orbit_triple_metric])
def test_grid_writers_match_oracles(build, n):
    base = fg.from_type("D3")
    moved = fg.conjugate_group(base, mb.MoebiusTransform([[1.1, 0.2j], [0.1, 0.9]]))
    for g in (base, moved):
        rows, columns = _grid_rows_and_columns(build(g), n)
        assert {row[2] for row in rows} == {"finite", "infinity"}
        _assert_writers_match_oracles(rows, columns)


def test_grid_writers_match_oracles_on_symmetric_grid():
    # a symmetric grid repeats most of its values: 5.9% of its rho values are distinct
    rows, columns = _grid_rows_and_columns(mt.conjugated_metric(fg.from_type("D6")), 200)
    assert len(np.unique(columns[3])) < 0.1 * len(rows)
    _assert_writers_match_oracles(rows, columns)


@pytest.mark.parametrize("writer", [mt.format_columns_csv, mt.format_columns_json])
def test_grid_writer_peak_memory_within_three_times_its_text(writer):
    # the conjugate D6 grid at n=200 (62128 rows): each writer peaks near 2.6 times its
    # text; keeping the row tuples, or the row texts past their join, peaks at 3.2 or 3.6.
    # The guard catches only those: an (n, 11) object table of template pieces and column
    # texts peaks at 2.63, near the writers, so no bound tells it apart
    columns = mt.metric_grid_columns(mt.conjugated_metric(fg.from_type("D6")), 200)
    assert len(columns[0]) == 62128
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = writer(columns)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


def test_grid_writers_match_oracles_on_edge_rows():
    nan, inf = math.nan, math.inf
    rows = [
        (0.0, -0.0, "finite", 1.0, -0.0),
        (-0.0, 0.0, "infinity", -0.0, 0.0),
        (0.0, -0.0, "finite", nan, inf),  # zeros again, after both signs were seen
        (nan, nan, "infinity", -inf, nan),
        (5e-324, -5e-324, "finite", 1.7e308, -1.7e308),
        (5e-324, 1e-300, "infinity", 5e-324, 1e-300),
        (np.float64(0.1), np.float64(-0.0), "finite", np.float64(2.5), np.float64(nan)),
        (np.float64(-inf), 0.1, "infinity", np.float64(1e-300), np.float64(-1.7e308)),
        (0.1, np.float64(0.1), "finite", 1 / 3, -2 / 3),
    ]
    _assert_writers_match_oracles(rows)
    _assert_writers_match_oracles([])
    for row in rows:
        _assert_writers_match_oracles([row])


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# both zeros, NaNs of both signs and other payloads (quiet and signalling),
# both infinities and subnormals; +-1.7e308 and 0.1 join them in the pool
_SPECIAL_BITS = [0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000,
                 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF4000000000000,
                 0x7FF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
                 0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x0008000000000000]


@st.composite
def _pooled_rows(draw):
    """Grid rows whose floats come from a small pool of bit patterns, so values repeat."""
    arbitrary = draw(st.lists(st.integers(0, 2**64 - 1), max_size=6))
    pool = [_float_of_bits(b) for b in _SPECIAL_BITS + arbitrary] + [1.7e308, -1.7e308, 0.1]
    cell = st.builds(lambda x, wrap: np.float64(x) if wrap else x,
                     st.sampled_from(pool), st.booleans())
    chart = st.sampled_from(["finite", "infinity", 'a "quoted" name \u00e9'])
    return draw(st.lists(st.tuples(cell, cell, chart, cell, cell), max_size=12))


@settings(max_examples=300, deadline=None)
@given(_pooled_rows())
def test_grid_writers_match_oracles_on_pooled_bit_patterns(rows):
    _assert_writers_match_oracles(rows)


def test_sphere_samples_cover_both_charts():
    zf, uf = mt.sphere_samples(101)
    assert len(zf) + len(uf) == 101
    assert np.all(np.abs(zf) <= 1.0 + 1e-12)
    assert np.all(np.abs(uf) < 1.0)


# ---------------------------------------------------------------------------
# oracle: per-element evaluation with chart switching, independent of the kernel

def _restricted_form(h, coords, finite):
    """Conformal factor of the Hermitian form h restricted to the sphere, in one chart."""
    h11, h22, h12 = h[0, 0].real, h[1, 1].real, h[0, 1]

    def q(v1, v2):
        return h11 * np.abs(v1) ** 2 + 2.0 * (np.conj(v1) * h12 * v2).real + h22 * np.abs(v2) ** 2

    dd = 2.0 / (1.0 + np.abs(coords) ** 2) ** 2
    if finite:
        zz = coords * coords
        return 0.5 * dd * dd * (q(1.0 - zz, 2.0 * coords.real) + q(1.0 + zz, -2j * coords.imag))
    ub = np.conj(coords)
    uu = ub * ub
    return 0.5 * dd * dd * (q(1.0 - uu, -(coords + ub)) + q(1.0 + uu, ub - coords))


def _oracle_rho(metric, coords, finite):
    """Mean over the stack of the form's factor at m(z) times |m'(z)|^2.

    The factor is read in the chart where |m(z)| <= 1; the infinity chart
    uses the stack composed with the flip z -> 1/z.
    """
    h = np.eye(2) if metric.form is None else metric.form
    mats = metric.stack if finite else metric.stack @ np.array([[0.0, 1.0], [1.0, 0.0]])
    a, b, c, d = (mats[:, i, j][:, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    det2 = np.abs(a * d - b * c) ** 2
    top = a * coords[None, :] + b
    bot = c * coords[None, :] + d
    with np.errstate(divide="ignore", invalid="ignore"):
        w = top / bot
    near = np.isfinite(w) & (np.abs(w) <= 1.0)
    out = np.empty(w.shape)
    out[near] = _restricted_form(h, w[near], True) / np.abs(bot[near]) ** 4
    out[~near] = _restricted_form(h, bot[~near] / top[~near], False) / np.abs(top[~near]) ** 4
    return np.mean(det2 * out, axis=0)


@pytest.mark.parametrize("tag", ["D3", "A4", "S4", "A5"])
def test_kernel_matches_per_element_oracle(tag):
    rng = np.random.default_rng(5)
    base = fg.from_type(tag)
    groups = [base] + [fg.conjugate_group(base, fg.random_conjugator(rng, 100.0)) for _ in range(2)]
    coords = np.concatenate([mt.grid_points(9), mt.sphere_samples(40)[0]])
    for g in groups:
        for build in (mt.averaged_metric, mt.conjugated_metric,
                      mt.hermitian_metric, mt.orbit_triple_metric):
            metric = build(g)
            for finite, rho in ((True, metric.rho), (False, metric.rho_at_infinity)):
                expected = _oracle_rho(metric, coords, finite)
                err = float(np.max(np.abs(rho(coords) - expected) / expected))
                assert err < 1e-12, (tag, build.__name__, finite, err)
