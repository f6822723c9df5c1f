from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from dessins import finite_groups as fg
from dessins import metrics as mt
from dessins import moebius as mb
from dessins.errors import CyclicGroupUnsupported, StencilOutOfDomain


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


def test_curvature_reference_values():
    rnd = mt.round_metric()
    assert abs(mt.curvature(rnd, 0.3 + 0.2j, 1e-3) - 1.0) < 1e-4
    rot = mt.pullback(mb.MoebiusTransform([[1, 1j], [1j, 1]]), rnd)
    assert abs(mt.curvature(rot, 0.1 - 0.4j, 1e-3) - 1.0) < 1e-4
    flat = SimpleNamespace(rho=lambda z: np.ones_like(np.asarray(z, complex), dtype=float),
                           rho_at_infinity=lambda u: np.ones_like(np.asarray(u, complex), dtype=float))
    assert abs(mt.curvature(flat, 0.2 + 0.1j)) < 1e-8


def test_curvature_chart_switching():
    rnd = mt.round_metric()
    assert abs(mt.curvature(rnd, 5.0 + 2j) - 1.0) < 1e-4
    assert abs(mt.curvature(rnd, mb.INFINITY) - 1.0) < 1e-4


def test_curvature_stencil_out_of_domain():
    bad = SimpleNamespace(rho=lambda z: np.real(np.asarray(z, complex)),
                          rho_at_infinity=lambda u: np.ones_like(np.asarray(u, complex), dtype=float))
    with pytest.raises(StencilOutOfDomain):
        mt.curvature(bad, -0.5 + 0j)
    with pytest.raises(ValueError):
        mt.curvature(mt.round_metric(), 0.0, step=0.0)


def test_invariance_defect_reference_cases():
    rnd = mt.round_metric()
    assert mt.invariance_defect(rnd, fg.from_type("D6"), 200) < 1e-10
    assert mt.invariance_defect(rnd, involution_group(), 200) > 0.01


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
                assert err < 1e-12, (tag, metric.provenance, finite, err)
