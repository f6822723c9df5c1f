import cmath
from collections import Counter

import numpy as np
import pytest

from dessins import finite_groups as fg
from dessins import moebius as mb
from dessins.errors import (CyclicGroupUnsupported, InfiniteGroup,
                            NumericalAmbiguity, TrivialGroup)
from dessins.grouptypes import GroupType, classify_census
from test_moebius import _oracle_chordal_distance


def test_closure_orders_and_tags():
    expectations = {"C2": 2, "C3": 3, "C5": 5, "C6": 6,
                    "D2": 4, "D3": 6, "D6": 12,
                    "A4": 12, "S4": 24, "A5": 60}
    for tag, order in expectations.items():
        g = fg.from_type(tag)
        assert g.order == order, tag
        assert str(g.type_tag) == tag


def test_closure_of_trivial_and_identity():
    g = fg.closure([])
    assert g.order == 1 and g.type_tag == GroupType.cyclic(1)
    g = fg.closure([mb.MoebiusTransform.identity()])
    assert g.order == 1


def test_closure_infinite_generator():
    with pytest.raises(InfiniteGroup):
        fg.closure([mb.MoebiusTransform.scaling(2.0)])


def test_closure_idempotent():
    for tag in ("D3", "A4", "S4"):
        g = fg.from_type(tag)
        again = fg.closure(g.elements, cap=2 * g.order)
        assert again.order == g.order
        assert again.type_tag == g.type_tag


def test_closure_numerical_ambiguity():
    theta = 2 * np.pi / 8
    g1 = mb.MoebiusTransform.scaling(cmath.exp(1j * theta))
    g2 = mb.MoebiusTransform.scaling(cmath.exp(1j * (theta + 6e-9)))
    assert 1e-9 < mb.projective_distance(g1, g2) < 1e-8
    with pytest.raises(NumericalAmbiguity):
        fg.closure([g1, g2])


def test_element_orders_match_a5_census():
    g = fg.from_type("A5")
    census = Counter(mb.element_order(m) for m in g.elements)
    assert dict(census) == {1: 1, 2: 15, 3: 20, 5: 24}


def test_unitarize_fixes_nothing_for_rotation_groups():
    g = fg.from_type("D4")
    h = fg.averaged_hermitian_form(g)
    assert np.abs(h - np.eye(2)).max() < 1e-12
    assert fg.unitarize(g).is_identity()


def test_unitarize_conjugated_groups():
    rng = np.random.default_rng(0)
    for tag in ("C3", "D4", "A4", "S4", "A5"):
        base = fg.from_type(tag)
        m = fg.random_conjugator(rng)
        moved = fg.conjugate_group(base, m)
        phi = fg.unitarize(moved)
        fixed = fg.conjugate_group(moved, phi)
        assert fg.is_in_SO3(fixed, 1e-8), tag
        assert fixed.order == base.order


def test_unitarize_translated_c4():
    g = fg.conjugate_group(fg.from_type("C4"), mb.MoebiusTransform.translation(3.0))
    fixed = fg.conjugate_group(g, fg.unitarize(g))
    assert max(m.unitarity_defect() for m in fixed.elements) < 1e-10


def test_unitarize_scaled_s4_preserves_order():
    g = fg.conjugate_group(fg.from_type("S4"), mb.MoebiusTransform.scaling(2.0))
    assert not fg.is_in_SO3(g, 1e-8)
    fixed = fg.conjugate_group(g, fg.unitarize(g))
    assert fg.is_in_SO3(fixed, 1e-8)
    assert fixed.order == 24


def test_is_in_SO3_detects_translates():
    g = fg.from_type("C4")
    assert fg.is_in_SO3(g, 1e-10)
    moved = fg.conjugate_group(g, mb.MoebiusTransform.translation(3.0))
    assert not fg.is_in_SO3(moved, 1e-8)
    assert fg.is_in_SO3(fg.closure([]), 1e-12)


def test_census_invariant_under_unitarization():
    rng = np.random.default_rng(4)
    base = fg.from_type("S4")
    moved = fg.conjugate_group(base, fg.random_conjugator(rng))
    phi = fg.unitarize(moved)
    fixed = fg.conjugate_group(moved, phi)
    census = lambda g: Counter(mb.element_order(m) for m in g.elements)
    assert census(moved) == census(base) == census(fixed)


def test_orbit_analysis_cyclic():
    data = fg.orbit_analysis(fg.from_type("C5"))
    assert data.sizes == (1, 1)
    assert all(o.stabilizer_order == 5 for o in data.orbits)
    assert fg.burnside_consistent(data)


@pytest.mark.parametrize("tag,sizes", [
    ("D2", (2, 2, 2)), ("D3", (3, 3, 2)), ("D6", (6, 6, 2)),
    ("A4", (6, 4, 4)), ("S4", (12, 8, 6)), ("A5", (30, 20, 12)),
])
def test_orbit_signatures(tag, sizes):
    data = fg.orbit_analysis(fg.from_type(tag))
    assert data.sizes == sizes
    for orbit in data.orbits:
        assert len(orbit.points) * orbit.stabilizer_order == data.group_order
    assert fg.burnside_consistent(data)


def test_orbit_analysis_trivial_group_rejected():
    with pytest.raises(TrivialGroup):
        fg.orbit_analysis(fg.closure([]))


def test_orbit_analysis_survives_conjugation():
    rng = np.random.default_rng(12)
    moved = fg.conjugate_group(fg.from_type("A4"), fg.random_conjugator(rng, 10.0))
    assert fg.orbit_analysis(moved).sizes == (6, 4, 4)


def test_conjugator_well_defined():
    assert fg.conjugator_well_defined(fg.from_type("A4"), trials=3, seed=1) < 1e-6
    assert fg.conjugator_well_defined(fg.from_type("D3"), trials=3, seed=2) < 1e-6
    with pytest.raises(CyclicGroupUnsupported):
        fg.conjugator_well_defined(fg.from_type("C5"), trials=3)
    with pytest.raises(ValueError):
        fg.conjugator_well_defined(fg.from_type("A4"), trials=1)


def test_group_serialization_round_trip():
    g = fg.from_type("D3")
    data = g.to_json()
    assert data["type"] == "D3"
    again = fg.FiniteMoebiusGroup.from_json(data)
    assert again.order == g.order
    for a, b in zip(g.elements, again.elements):
        assert a.projectively_equal(b)


def test_random_conjugator_respects_condition_cap():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = fg.random_conjugator(rng, max_condition=5.0)
        assert np.linalg.cond(m.matrix) <= 5.0
        assert max(abs(x) for x in (m.a, m.b, m.c, m.d)) < 1e3


def test_random_conjugator_rejects_condition_below_one():
    with pytest.raises(ValueError):
        fg.random_conjugator(np.random.default_rng(0), 0.5)


# The per-element power walk and all-pairs commutator loop that the stack
# invariants replaced, kept as their oracles.

def _oracle_order(m, cap):
    ident = mb.MoebiusTransform.identity()
    power = m
    for n in range(1, cap + 1):
        if power.projectively_equal(ident):
            return n
        power = power.compose(m)
    return 0


def _oracle_tag(orders):
    if 0 in orders:
        return GroupType.other()
    return classify_census(len(orders), dict(Counter(orders)))


_ORACLE_TAGS = ["C1", "C2", "C5", "C12", "C60", "C140", "D2", "D3", "D6", "D15", "D50",
                "A4", "S4", "A5"]


@pytest.mark.parametrize("tag", _ORACLE_TAGS)
def test_stack_invariants_match_per_element_oracle(tag):
    rng = np.random.default_rng(sum(map(ord, tag)))
    base = fg.from_type(tag)
    assert str(base.type_tag) == tag
    for g in (base, fg.conjugate_group(base, fg.random_conjugator(rng, 100.0))):
        cap = max(mb.DEFAULT_ORDER_CAP, g.order)
        orders = [_oracle_order(m, cap) for m in g.elements]
        assert mb.element_orders(g.stack, cap).tolist() == orders
        assert fg.classify_elements(g.elements) == _oracle_tag(orders) == base.type_tag
        serialized = [mb.MoebiusTransform.from_entries(e) for e in g.to_json()["elements"]]
        again = fg.closure(serialized)
        assert (again.order, again.type_tag) == (g.order, g.type_tag)


def test_conjugate_group_matches_per_element_oracle():
    rng = np.random.default_rng(8)
    for tag in ("D6", "S4", "A5"):
        g = fg.from_type(tag)
        m = fg.random_conjugator(rng, 100.0)
        moved = fg.conjugate_group(g, m)
        expected = np.array([m.compose(e).compose(m.inverse()).matrix for e in g.elements])
        assert moved.stack.shape == (g.order, 2, 2)
        assert float(mb.projective_gap(moved.stack, expected).max()) < 1e-12


def test_group_stack_is_read_only():
    g = fg.from_type("D3")
    with pytest.raises(ValueError):
        g.stack[0, 0, 0] = 2.0


# The seed's point-by-point orbit analysis (fixed points clustered by linear
# scans with the stereographic chordal distance, each orbit and stabilizer by
# applying every element), kept as the oracle of the stack version.

def _oracle_orbit_analysis(g):
    def close(p, q):
        return _oracle_chordal_distance(p, q) < fg.CLUSTER_TOL

    def find(reps, p):
        return next(k for k, r in enumerate(reps) if close(p, r))

    elements = g.elements
    reps = []
    for p in (p for m in elements if not m.is_identity() for p in mb.fixed_points(m)):
        if not any(close(p, r) for r in reps):
            reps.append(p)
    assigned = [False] * len(reps)
    orbits = []
    for k, rep in enumerate(reps):
        if assigned[k]:
            continue
        members = {find(reps, m.apply(rep)) for m in elements}
        for idx in members:
            assigned[idx] = True
        stab = sum(1 for m in elements if close(m.apply(rep), rep))
        orbits.append(fg.Orbit(tuple(reps[i] for i in sorted(members)), stab))
    orbits.sort(key=lambda o: len(o.points), reverse=True)
    return fg.OrbitData(tuple(orbits), g.order)


@pytest.mark.parametrize("tag", ["C2", "C5", "C60", "C140", "D2", "D3", "D6", "D15", "D50",
                                 "D100", "A4", "S4", "A5"])
def test_orbit_analysis_matches_point_by_point_oracle(tag):
    rng = np.random.default_rng(sum(map(ord, tag)))
    base = fg.from_type(tag)
    moved = [fg.conjugate_group(base, fg.random_conjugator(rng, c)) for c in (2.5, 100.0, 100.0)]
    for g in [base] + moved:
        data = fg.orbit_analysis(g)
        assert repr(data) == repr(_oracle_orbit_analysis(g))  # bit-identical points
        assert fg.burnside_consistent(data)
