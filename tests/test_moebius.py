import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import moebius as mb
from dessins.errors import DegenerateTriple, PoleEvaluation, UnsupportedType
from dessins.grouptypes import GroupType


def _rand_transform(rng):
    while True:
        m = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        if abs(np.linalg.det(m)) > 0.1:
            return mb.MoebiusTransform(m)


def test_normalization_gives_unit_determinant():
    m = mb.MoebiusTransform([[3, 1], [2, 5]])
    assert abs(m.a * m.d - m.b * m.c - 1) < 1e-12


def test_apply_pole_and_values():
    m = mb.MoebiusTransform([[1, 1], [1, -1]])  # (z+1)/(z-1)
    assert m.apply(1.0).is_infinity
    assert abs(m.apply(1j).z - (-1j)) < 1e-12
    assert mb.MoebiusTransform.identity().apply(mb.INFINITY).is_infinity
    assert abs(m.apply(mb.INFINITY).z - 1.0) < 1e-12


def test_compose_and_inverse():
    m = mb.MoebiusTransform([[1, 1], [1, -1]])
    assert mb.MoebiusTransform.identity().compose(m).projectively_equal(m)
    assert m.compose(m).is_identity()
    zeta = cmath.exp(2j * cmath.pi / 7)
    s = mb.MoebiusTransform.scaling(zeta)
    assert s.inverse().projectively_equal(mb.MoebiusTransform.scaling(1 / zeta))
    assert m.compose(m.inverse()).is_identity()


def test_derivative_values():
    assert abs(mb.MoebiusTransform.identity().derivative(0.3 + 2j) - 1) < 1e-12
    zeta = cmath.exp(0.7j)
    assert abs(mb.MoebiusTransform.scaling(zeta).derivative(5 - 1j) - zeta) < 1e-12
    assert abs(mb.MoebiusTransform.inversion().derivative(2.0) - (-0.25)) < 1e-12
    with pytest.raises(PoleEvaluation):
        mb.MoebiusTransform([[1, 1], [1, -1]]).derivative(1.0)


def test_derivative_is_sign_independent():
    m = mb.MoebiusTransform([[1, 1], [1, -1]])
    neg = mb.MoebiusTransform(-np.asarray([[1, 1], [1, -1]], dtype=complex))
    assert abs(m.derivative(0.5j) - neg.derivative(0.5j)) < 1e-12


def test_from_triple_reference_cases():
    assert mb.from_triple(0.0, 1.0, mb.INFINITY).is_identity()
    m = mb.from_triple(1.0, 0.0, mb.INFINITY)  # z -> 1 - z
    for z in (0.0, 1.0, 0.25, 2j):
        assert abs(m.apply(z).z - (1 - z)) < 1e-12


def test_from_triple_random_triples():
    rng = np.random.default_rng(5)
    for k in range(100):
        pts = []
        while len(pts) < 3:
            if k % 7 == 3 and len(pts) == 2 and not any(p.is_infinity for p in pts):
                cand = mb.INFINITY
            else:
                cand = mb.SpherePoint(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
            if all(mb.chordal_distance(cand, p) > 1e-3 for p in pts):
                pts.append(cand)
        m = mb.from_triple(*pts)
        for src, want in zip((0.0, 1.0, mb.INFINITY), pts):
            assert mb.chordal_distance(m.apply(src), want) < 1e-10


def test_from_triple_degenerate():
    with pytest.raises(DegenerateTriple):
        mb.from_triple(1.0, 1.0, mb.INFINITY)
    with pytest.raises(DegenerateTriple):
        mb.from_triple(mb.INFINITY, 1.0, mb.INFINITY)


def test_stereographic_reference_points():
    assert mb.stereographic(mb.EuclideanSpherePoint(0j, 1.0)).is_infinity
    assert abs(mb.stereographic(mb.EuclideanSpherePoint(0j, -1.0)).z) < 1e-15
    assert abs(mb.stereographic(mb.EuclideanSpherePoint(1.0 + 0j, 0.0)).z - 1.0) < 1e-15
    with pytest.raises(ValueError):
        mb.EuclideanSpherePoint(1.0 + 0j, 0.5)


def test_stereographic_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = mb.EuclideanSpherePoint(complex(v[0], v[1]), float(v[2]))
        q = mb.stereographic_inverse(mb.stereographic(p))
        assert abs(q.z - p.z) < 1e-10 and abs(q.t - p.t) < 1e-10
    assert mb.stereographic(mb.stereographic_inverse(mb.INFINITY)).is_infinity


def test_element_order():
    assert mb.element_order(mb.MoebiusTransform.scaling(1j)) == 4
    assert mb.element_order(mb.MoebiusTransform([[1, 1], [1, -1]])) == 2
    assert mb.element_order(mb.MoebiusTransform.translation(1.0), cap=100) is None


def test_element_order_conjugation_invariant():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 5, 6):
        m = mb.MoebiusTransform.scaling(cmath.exp(2j * cmath.pi / n))
        for _ in range(5):
            g = _rand_transform(rng)
            conj = g.compose(m).compose(g.inverse())
            assert mb.element_order(conj) == n


def test_fixed_points():
    assert mb.fixed_points(mb.MoebiusTransform.identity()) is mb.ALL_POINTS
    fp = mb.fixed_points(mb.MoebiusTransform.scaling(cmath.exp(1j)))
    assert {p.is_infinity for p in fp} == {True, False}
    assert min(abs(p.z) for p in fp if not p.is_infinity) < 1e-12
    fp = mb.fixed_points(mb.MoebiusTransform.inversion())
    vals = sorted(p.z.real for p in fp)
    assert len(fp) == 2 and abs(vals[0] + 1) < 1e-12 and abs(vals[1] - 1) < 1e-12
    fp = mb.fixed_points(mb.MoebiusTransform.translation(1.0))
    assert len(fp) == 1 and fp[0].is_infinity


def test_standard_generators():
    gens = mb.standard_generators(GroupType.cyclic(6))
    assert len(gens) == 1 and mb.element_order(gens[0]) == 6
    for tag in ("dihedral", "A4", "S4", "A5"):
        t = GroupType.dihedral(4) if tag == "dihedral" else GroupType(tag)
        for g in mb.standard_generators(t):
            assert g.unitarity_defect() < 1e-12
    with pytest.raises(UnsupportedType):
        mb.standard_generators(GroupType.other())


def test_serialization_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = _rand_transform(rng)
        again = mb.MoebiusTransform.from_entries(m.to_entries())
        assert m.projectively_equal(again)


complex_points = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                                    allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), complex_points)
def test_projective_equality_respected_by_apply(seed, z):
    rng = np.random.default_rng(seed)
    m = _rand_transform(rng)
    neg = mb.MoebiusTransform(-m.matrix)
    assert m.projectively_equal(neg)
    assert mb.chordal_distance(m.apply(z), neg.apply(z)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_chain_rule(seed):
    rng = np.random.default_rng(seed)
    m1, m2 = _rand_transform(rng), _rand_transform(rng)
    for _ in range(4):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = m2.apply(z)
        if w.is_infinity or abs(m2.c * z + m2.d) < 1e-3:
            continue
        if abs(m1.c * w.z + m1.d) < 1e-3:
            continue
        lhs = m1.compose(m2).derivative(z)
        rhs = m1.derivative(w.z) * m2.derivative(z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("z", [1e200, 1e300j, complex(-3e160, 2e160), complex(1.5e308, -1.5e308)])
def test_stereographic_inverse_beyond_float_squares(z):
    # |z|^2 overflows here; the point is evaluated through u = 1/z
    p = mb.stereographic_inverse(mb.SpherePoint(z))
    u = 1 / z
    assert p.t == 1.0
    assert abs(p.z - 2 * u.conjugate()) <= 1e-15 * abs(u)
    assert mb.stereographic(p).is_infinity


def test_stereographic_inverse_ordinary_points_unchanged():
    for z in (0j, 0.3 + 0.4j, -2.5 + 7j, 1e150 + 1e150j):
        r2 = abs(z) ** 2
        p = mb.stereographic_inverse(mb.SpherePoint(z))
        assert (p.z, p.t) == (2 * z / (r2 + 1.0), (r2 - 1.0) / (r2 + 1.0))


def test_overflowing_determinant_rejected_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in ([[1e300, 0], [0, 1e300]], [[1e200, 1e200], [-1e200, 1e200]],
                  [[1.3e154 + 1.3e154j, 0], [0, 1e154]]):  # |det| just above the floats
            with pytest.raises(ValueError, match="determinant overflows"):
                mb.MoebiusTransform(m)
