import cmath
import functools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import finite_groups as fg
from dessins import metrics as mt
from dessins import moebius as mb
from dessins.errors import (CyclicGroupUnsupported, InfiniteGroup,
                            NumericalAmbiguity, TrivialGroup)
from dessins.grouptypes import GroupType, classify_census, parse_group_tag
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


@pytest.mark.parametrize("cap", [1.0, 1.05, np.nextafter(fg.MIN_CONDITION, 0.0)])
def test_random_conjugator_rejects_caps_it_would_hardly_meet(cap):
    # no draw is unitary, so at 1.0 the rejection loop would never end
    with pytest.raises(ValueError, match="at least 1.1"):
        fg.random_conjugator(np.random.default_rng(0), cap)
    assert np.linalg.cond(fg.random_conjugator(np.random.default_rng(0), fg.MIN_CONDITION).matrix) <= 1.1


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


def test_generators_are_kept_through_closure_conjugation_and_json():
    def normalized(ms):
        return np.array([mb.MoebiusTransform(m.matrix).matrix for m in ms])

    gens = mb.standard_generators(parse_group_tag("A5"))
    g = fg.closure(gens)
    assert g.generators.tobytes() == normalized(gens).tobytes()
    raw = [mb.MoebiusTransform.from_normalized(2j * m.matrix) for m in gens]  # det -4
    assert fg.closure(raw).generators.tobytes() == normalized(raw).tobytes()
    assert float(np.abs(normalized(raw) - g.generators).max()) < 1e-15
    m = fg.random_conjugator(np.random.default_rng(4), 100.0)
    moved = fg.conjugate_group(g, m)
    assert moved.generators.tobytes() == (m.matrix @ g.generators @ m.inverse().matrix).tobytes()
    again = fg.closure([mb.MoebiusTransform(x) for x in moved.generators])
    assert (again.order, again.type_tag) == (60, moved.type_tag)
    for bare in (fg.FiniteMoebiusGroup.from_json(g.to_json()), fg.FiniteMoebiusGroup(g.stack, g.type_tag)):
        assert bare.generators is bare.stack
    assert fg.closure([]).generators.shape == (0, 2, 2)
    for grp in (g, moved):
        with pytest.raises(ValueError):
            grp.generators[0, 0, 0] = 2.0


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


# The seed's closure (one MoebiusTransform and one whole-stack projective_gap
# scan per product, products taken one at a time in frontier-major order) and
# its power walk of the whole stack, kept as the oracles of the frontier
# closure and of the shrinking walk.

def _oracle_element_orders(stack, cap):
    orders = np.zeros(len(stack), dtype=int)
    power = stack
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, cap + 1):
            orders[(orders == 0) & (mb.projective_gap(power, np.eye(2)) < mb.PROJECTIVE_TOL)] = n
            if orders.all():
                break
            power = power @ stack
    return orders


def _oracle_closure(generators, cap=fg.DEFAULT_CLOSURE_CAP):
    if cap < 1:
        raise ValueError("cap must be at least 1")
    stack = np.empty((cap, 2, 2), dtype=complex)
    stack[0] = np.eye(2)
    size = 1

    def register(m):
        nonlocal size
        best = mb.projective_gap(stack[:size], m).min()
        if best < mb.PROJECTIVE_TOL:
            return False
        if best < 10 * mb.PROJECTIVE_TOL:
            raise NumericalAmbiguity(
                f"two elements at projective distance {best:.3e}; "
                "tighten the generators")
        if size == cap:
            raise InfiniteGroup(f"closure exceeded {cap} elements")
        stack[size] = m
        size += 1
        return True

    gens = [mb.MoebiusTransform(g.matrix).matrix for g in generators]
    frontier = [g for g in gens if register(g)]
    while frontier:
        products = (mb.MoebiusTransform(w @ g).matrix for w in frontier for g in gens)
        frontier = [p for p in products if register(p)]
    stack = stack[:size].copy()
    orders = _oracle_element_orders(stack, max(mb.DEFAULT_ORDER_CAP, len(stack)))
    return stack, _oracle_tag(orders.tolist())


def _closure_outcome(closure, generators, cap=fg.DEFAULT_CLOSURE_CAP):
    """Stack bytes, shape and tag, or the exception's type and message."""
    try:
        result = closure(generators, cap)
    except (ValueError, InfiniteGroup, NumericalAmbiguity) as exc:
        return type(exc), str(exc)
    stack, tag = result if isinstance(result, tuple) else (result.stack, result.type_tag)
    return stack.tobytes(), stack.shape, str(tag)


def _assert_closure_matches_oracle(generators, cap=fg.DEFAULT_CLOSURE_CAP):
    outcome = _closure_outcome(fg.closure, generators, cap)
    assert outcome == _closure_outcome(_oracle_closure, generators, cap)
    return outcome


def _conjugated_generators(tag, count):
    rng = np.random.default_rng([sum(map(ord, tag)), count])
    gens = mb.standard_generators(parse_group_tag(tag))
    for _ in range(count):
        m = fg.random_conjugator(rng, 100.0)
        yield [m.compose(g).compose(m.inverse()) for g in gens]


def _serialized(g):
    return [mb.MoebiusTransform.from_entries(e) for e in g.to_json()["elements"]]


@pytest.mark.parametrize("tag", ["C1", "C2", "C3", "C7", "C12", "C30", "C60", "C119", "C199",
                                 "C200", "C201", "C250", "D2", "D3", "D7", "D15", "D50", "D99",
                                 "D100", "D101", "A4", "S4", "A5"])
def test_closure_matches_oracle_on_tags_and_conjugates(tag):
    expected = parse_group_tag(tag).expected_order
    for gens in [mb.standard_generators(parse_group_tag(tag)), *_conjugated_generators(tag, 3)]:
        outcome = _assert_closure_matches_oracle(gens)
        if expected > fg.DEFAULT_CLOSURE_CAP:
            assert outcome == (InfiniteGroup, "closure exceeded 200 elements")
        else:
            assert outcome[1:] == ((expected, 2, 2), tag)


@pytest.mark.parametrize("tag", ["C2", "C5", "C12", "C30", "D3", "D6", "D15", "A4", "S4", "A5"])
def test_closure_matches_oracle_on_serialized_lists_and_at_the_cap(tag):
    for gens in [mb.standard_generators(parse_group_tag(tag)), *_conjugated_generators(tag, 1)]:
        g = fg.closure(gens)
        elements = _serialized(g)
        for listed in (gens, elements, elements[::-1]):
            assert _assert_closure_matches_oracle(listed)[1:] == ((g.order, 2, 2), tag)
            assert _assert_closure_matches_oracle(listed, g.order)[1:] == ((g.order, 2, 2), tag)
            assert _assert_closure_matches_oracle(listed, g.order - 1) == (
                InfiniteGroup, f"closure exceeded {g.order - 1} elements")


def test_closure_matches_oracle_on_perturbed_a5():
    outcomes = []
    for eps in (1e-12, 3e-9, 1e-8, 5e-8):
        a, b = mb.standard_generators(parse_group_tag("A5"))
        for moved in ([a, mb.MoebiusTransform(b.matrix * [[1, 1 + eps], [1, 1]])],
                      [mb.MoebiusTransform(a.matrix + [[eps, 0], [0, 0]]), b]):
            outcomes.append(_assert_closure_matches_oracle(moved))
    kinds = {o[0] if o[0] in (InfiniteGroup, NumericalAmbiguity) else o[2] for o in outcomes}
    assert {"A5", NumericalAmbiguity} <= kinds


@pytest.mark.parametrize("seed", range(8))
def test_closure_matches_oracle_on_random_generators(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        gens = [mb.MoebiusTransform(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                for _ in range(int(rng.integers(1, 4)))]
        _assert_closure_matches_oracle(gens, int(rng.choice([5, 30, 200])))
    # rotations of finite order about two random axes: mostly infinite groups
    for _ in range(4):
        t = cmath.exp(1j * cmath.pi / int(rng.integers(2, 13)))
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.array([[t, 0], [0, 1 / t]])
        _assert_closure_matches_oracle([mb.MoebiusTransform(u),
                                        mb.MoebiusTransform(q @ u @ q.conj().T)])


def test_closure_raises_at_the_overflowing_product_in_order():
    # round 1 is r r, r g, g r, g g, and only g g = diag(1e320, 1e-320) overflows:
    # at cap 4, g r exceeds the cap before g g is reached
    gens = [mb.MoebiusTransform([[0, 1j], [1j, 0]]),
            mb.MoebiusTransform([[1e160, 0], [0, 1e-160]])]
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = [_assert_closure_matches_oracle(gens, cap) for cap in (3, 4, 5, 200)]
    assert outcomes[1] == (InfiniteGroup, "closure exceeded 4 elements")
    assert outcomes[2] == outcomes[3] == (ValueError, "matrix determinant overflows")


@pytest.mark.parametrize("tag", ["C1", "C7", "C60", "D2", "D15", "A4", "S4", "A5"])
def test_closure_of_repeated_generators_matches_the_list_once(tag):
    # products are formed with the distinct generators only, so repeats and the
    # identity change no byte; the generators keep every listed entry
    identity = mb.MoebiusTransform(np.eye(2))
    for gens in [mb.standard_generators(parse_group_tag(tag)), *_conjugated_generators(tag, 2)]:
        for listed in (gens, _serialized(fg.closure(gens)), [identity, *gens, identity]):
            once, thrice = fg.closure(listed), fg.closure(listed * 3)
            assert thrice.stack.tobytes() == once.stack.tobytes()
            assert str(thrice.type_tag) == str(once.type_tag) == tag
            assert thrice.generators.tobytes() == np.concatenate([once.generators] * 3).tobytes()


def test_closure_of_a_repeated_infinite_pair_forms_the_products_of_the_pair(monkeypatch):
    # z -> -z and z -> -z + 2 generate an infinite dihedral group
    pair = [mb.MoebiusTransform([[1j, 0], [0, -1j]]), mb.MoebiusTransform([[1j, 2j], [0, -1j]])]
    rows = []

    def counted(*row):  # called once per product formed
        rows.append(row)
        return mb.normalizing_root(*row)

    monkeypatch.setattr(fg, "normalizing_root", counted)
    outcomes = []
    for copies in (1, 20):
        rows.clear()
        with pytest.raises(InfiniteGroup) as info:
            fg.closure(pair * copies, 300)
        outcomes.append((str(info.value), len(rows)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "closure exceeded 300 elements" and outcomes[0][1] > 0


@pytest.mark.parametrize("cap", [1, 120, 200])
def test_element_orders_match_full_power_walk(cap):
    rng = np.random.default_rng(cap)
    free = np.array([mb.MoebiusTransform(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))).matrix
                     for _ in range(40)])
    assert not _oracle_element_orders(free, 200).any()  # no finite order up to 200
    stacks = [fg.from_type(t).stack for t in ("C1", "C7", "D15", "A5", "C140", "D100")]
    stacks += [fg.conjugate_group(fg.from_type(t), fg.random_conjugator(rng)).stack
               for t in ("S4", "D50", "C60")]
    stacks += [free, np.concatenate([free[:10], stacks[3], free[10:]]), free[:0]]
    for stack in stacks:
        assert mb.element_orders(stack, cap).tolist() == _oracle_element_orders(stack, cap).tolist()


# Rows for the property test of the closed-form orders: elements of conjugated
# finite groups, +-I, parabolic, loxodromic and perturbed rotations, mixed in
# one stack so that the rows are also checked for independence.

@functools.lru_cache(maxsize=None)
def _exceptional_stack(tag):
    return fg.from_type(tag).stack


def _cyclic_dihedral_rows(tag, rng, count):
    n = parse_group_tag(tag).n
    k = rng.integers(0, n, count)
    w = np.exp(1j * np.pi * k / n)
    rows = np.zeros((count, 2, 2), dtype=complex)
    rows[:, 0, 0], rows[:, 1, 1] = w, 1 / w
    if tag[0] == "D":  # half of them times the inversion, as [[0, i], [i, 0]]
        flip = rng.random(count) < 0.5
        rows[flip] = rows[flip] @ np.array([[0, 1j], [1j, 0]])
    return rows


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q / np.sqrt(np.linalg.det(q))


_GROUP_TAGS = st.one_of(st.integers(1, 200).map("C{}".format),
                        st.integers(2, 100).map("D{}".format),
                        st.sampled_from(["A4", "S4", "A5"]))


@st.composite
def _order_rows(draw):
    kind = draw(st.sampled_from(["group", "sign", "parabolic", "loxodromic", "perturbed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "group":
        tag = draw(_GROUP_TAGS)
        count = draw(st.integers(1, 12))
        if tag[0] in "CD":
            rows = _cyclic_dihedral_rows(tag, rng, count)
        else:
            stack = _exceptional_stack(tag)
            rows = stack[rng.integers(0, len(stack), count)]
        m = fg.random_conjugator(rng, draw(st.floats(2.0, 100.0)))
        return m.matrix @ rows @ m.inverse().matrix
    if kind == "sign":
        return np.array([np.eye(2), -np.eye(2)])
    if kind == "parabolic":  # z -> z + t, on both sides of PROJECTIVE_TOL
        t = 10.0 ** draw(st.floats(-11.0, -7.0)) * np.exp(2j * np.pi * rng.random())
        rows = np.array([[[1, t], [0, 1]], [[-1, -t], [0, -1]]])
        u = _random_rotation(rng)
        return np.concatenate([rows, u @ rows @ u.conj().T])
    if kind == "loxodromic":
        k = np.exp(draw(st.floats(1e-6, 3.0)) + 2j * np.pi * rng.random())
        m = fg.random_conjugator(rng, draw(st.floats(2.0, 100.0)))
        return (m.matrix @ np.diag([k, 1 / k]) @ m.inverse().matrix)[None]
    q = draw(st.integers(2, 200))  # a rotation of order q about a random axis, perturbed
    p = draw(st.integers(1, q - 1))
    w = np.exp(1j * np.pi * p / q)
    u = _random_rotation(rng)
    eps = 10.0 ** draw(st.floats(-12.0, -8.0))
    moved = u @ np.diag([w, 1 / w]) @ u.conj().T + eps * (rng.normal(size=(2, 2))
                                                          + 1j * rng.normal(size=(2, 2)))
    return mb.MoebiusTransform(moved).matrix[None]


def test_element_orders_cap_range():
    stack = fg.from_type("C7").stack
    assert mb.element_orders(stack, mb._MAX_ORDER_CAP).tolist() == _oracle_element_orders(stack, 7).tolist()
    for cap in (0, mb._MAX_ORDER_CAP + 1):
        with pytest.raises(ValueError, match="cap must be from 1 to"):
            mb.element_orders(stack, cap)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(_order_rows(), min_size=1, max_size=4),
       cap=st.sampled_from([1, 120, 200]))
def test_element_orders_match_power_walk_oracle(parts, cap):
    stack = np.concatenate(parts)
    assert mb.element_orders(stack, cap).tolist() == _oracle_element_orders(stack, cap).tolist()


def test_closure_memory_is_bounded_on_a_serialized_a5():
    # 60 generators, 59 of them registered in round 1: round 2 has 59 x 59 = 3481
    # products, compared in blocks of CLOSURE_BLOCK;
    # compared all at once against the stack they would need about 40 MB
    (gens,) = _conjugated_generators("A5", 1)
    elements = _serialized(fg.closure(gens))
    tracemalloc.start()
    try:
        g = fg.closure(elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 60
    assert peak < 2 * 2**20


# The key index of closure against a whole-stack projective_gap scan: the
# nearest gap is exact below 10 * PROJECTIVE_TOL and never smaller above it.

def _index_of(stack):
    index = fg._KeyIndex(stack)
    keys, _ = fg._keys(stack)
    for row, key in enumerate(keys.tolist()):
        index.add(row, key)
    return index


def _planted_candidates(stack, rng):
    """Rows, their negatives, and neighbours of random rows at 0.5 to 10.1 tolerances."""
    picks = rng.integers(0, len(stack), 24)
    yield from stack[picks[:4]]
    yield from -stack[picks[4:8]]
    for k, t in zip(picks[8:], [0.5, 2, 9.9, 10.1] * 4):
        step = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        step *= t * mb.PROJECTIVE_TOL / np.abs(step).max()
        yield (1 if k % 2 else -1) * (stack[k] + step)
    for _ in range(4):
        yield mb.MoebiusTransform(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))).matrix


def _registered_sets(rng):
    for tag in ("C7", "D15", "A5", "S4", "C120", "D50"):
        base = fg.from_type(tag)
        yield base.stack
        for condition in (2.0, 100.0):
            yield fg.conjugate_group(base, fg.random_conjugator(rng, condition)).stack
    huge = np.array([[[1e150, 0], [0, 1e-150]], [[1e-150, 0], [0, 1e150]],
                     [[1e150, 1e140], [0, 1e-150]], [[1e300, 0], [0, 1e-300]]], dtype=complex)
    d7 = fg.from_type("D7").stack
    yield np.concatenate([huge, d7, -huge[:2] * (1 + 1e-18)])
    yield np.concatenate([d7, -d7])  # every row twice, once sign-flipped


@pytest.mark.parametrize("seed", range(3))
def test_key_index_nearest_matches_the_whole_stack_scan(seed):
    rng = np.random.default_rng(seed)
    for stack in _registered_sets(rng):
        stack = np.ascontiguousarray(stack)
        index = _index_of(stack)
        candidates = np.array(list(_planted_candidates(stack, rng)))
        keys, reaches = fg._keys(candidates)
        many = index.nearest_many(candidates, keys, reaches)
        for m, key, reach, bulk in zip(candidates, keys.tolist(), reaches.tolist(), many):
            scan = mb.projective_gap(stack, m).min()
            python_key = fg._key(*m.ravel().tolist())
            found = [index.nearest(m, key, reach), index.nearest(m, *python_key), bulk]
            if scan < 10 * mb.PROJECTIVE_TOL:
                assert all(np.float64(f).tobytes() == scan.tobytes() for f in found)
            else:
                assert all(f >= scan for f in found)
        near = mb.projective_gap(stack[:, None], candidates[None]).min(axis=0)
        assert (near < mb.PROJECTIVE_TOL).any() and ((near > 2 * mb.PROJECTIVE_TOL)
                                                      & (near < 10 * mb.PROJECTIVE_TOL)).any()


def test_keys_stay_finite_and_find_every_row():
    # parts are clipped, so infinite and huge entries key like entries of 1e300
    rng = np.random.default_rng(7)
    rows = (rng.normal(size=(300, 2, 2)) + 1j * rng.normal(size=(300, 2, 2))) * np.exp(
        rng.uniform(-300, 300, (300, 1, 1)))
    rows[:2] = [[[1e308, 1e308], [-1e308, 1e308]], [[0, 0], [0, 0]]]
    rows[-2:] = [[[np.inf, 0], [0, 1]], [[complex(np.inf, -np.inf), 0], [0, 1]]]
    keys, reaches = fg._keys(rows)
    python = np.array([fg._key(*row.ravel().tolist()) for row in rows])
    assert np.isfinite(keys).all() and np.isfinite(reaches).all() and np.isfinite(python).all()
    index = _index_of(rows[:-2])
    with np.errstate(over="ignore"):  # M + M overflows for the entries of 1e308
        for m, key, reach, (python_key, python_reach) in zip(rows[:-2], keys, reaches, python):
            assert index.nearest(m, key, reach) == index.nearest(m, python_key, python_reach) == 0


def _normalizing_rows(rng):
    rows = rng.normal(size=(300, 4)) + 1j * rng.normal(size=(300, 4))
    scales = np.exp(rng.uniform(-150, 150, (60, 1)))
    rows[::5] *= np.hstack([scales, scales, 1 / scales, 1 / scales])  # the same determinant
    x, y = rng.uniform(0.1, 3.0, (2, 40))
    rows[:40] = np.column_stack([x, 0 * x, 0 * x, -y])  # determinant -xy + 0j
    rows[40:80] = np.column_stack([x, 0 * x, 0 * x, -y - 0j])
    rows[40:80, 3].imag = -0.0  # determinant -xy - 0j
    rows[80:120] = np.column_stack([x, 0 * x, 0 * x, 1j * y])  # on the imaginary axis
    rows[120:160] = np.column_stack([1j * x, y, -y, 0 * x])  # determinant y^2 + 0j
    return rows


def test_normalizing_roots_match_normalizing_root_bit_for_bit():
    rows = _normalizing_rows(np.random.default_rng(3))
    roots, error = mb.normalizing_roots(rows)
    expected = np.array([mb.normalizing_root(*row) for row in rows.tolist()])
    assert error is None
    assert roots.tobytes() == expected.tobytes()
    assert np.signbit(roots.real[40:80]).all() and not np.signbit(roots.real[:40]).any()


@pytest.mark.parametrize("bad, message", [
    ([1e200, 1e200, -1e200, 1e200], "matrix determinant overflows"),
    ([np.inf, 0, 0, 1], "matrix determinant overflows"),
    ([1, 2, 2, 4], "matrix is singular"),
    ([1e-8, 0, 0, 1e-7], "matrix is singular"),
])
def test_normalizing_roots_stop_at_the_first_bad_row(bad, message):
    rows = _normalizing_rows(np.random.default_rng(4))
    rows[170], rows[250] = bad, [1, 2, 2, 4]
    roots, error = mb.normalizing_roots(rows)
    with pytest.raises(ValueError, match=message):
        mb.normalizing_root(*rows[170].tolist())
    assert type(error) is ValueError and str(error) == message
    expected = np.array([mb.normalizing_root(*row) for row in rows[:170].tolist()])
    assert roots.tobytes() == expected.tobytes()


def test_closure_of_a_serialized_d200_takes_few_exact_gaps(monkeypatch):
    # round 2 multiplies the 399 registered elements by themselves: 159201
    # products, each a repeat, and each matched through its key window; a
    # comparison with every row would take 400 times as many gaps
    elements = _serialized(fg.closure(mb.standard_generators(parse_group_tag("D200")), 400))
    pairs = []

    def counted(a, b):
        gaps = mb.projective_gap(a, b)
        pairs.append(gaps.size)
        return gaps

    monkeypatch.setattr(fg, "projective_gap", counted)
    g = fg.closure(elements, 401)
    products = len(elements) + 399 ** 2
    assert g.order == 400 and str(g.type_tag) == "D200"
    assert 399 ** 2 <= sum(pairs) <= 2 * products
    monkeypatch.undo()
    tracemalloc.start()
    try:
        fg.closure(elements, 401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # measured 1.0 MB; the whole-stack comparison peaked near 50 MB


# The conjugator drawn for the serialized D15 op of the groups benchmark at
# seed 23 (condition number 60.8).  The stack's entries reach 35 and it closes
# only to 6.5e-11.  Evaluating the kernel at samples moved by the group gave an
# invariance defect of 4.4e-9, over the benchmark's 1e-9, by cancellation;
# the kernel of the stack S @ h at the samples themselves gives about 3e-12.
_ILL_CONDITIONED = [[1.9428715327999269, -3.7556618701743365],
                    [0.005445881336554236, 2.8348093221595922],
                    [-4.3493234502604015, -2.164322048591115],
                    [3.3650889275505413, 0.15278769954666033]]


def test_average_metric_invariance_on_an_ill_conditioned_serialized_d15():
    m = mb.MoebiusTransform.from_normalized(
        np.array([complex(*e) for e in _ILL_CONDITIONED]).reshape(2, 2))
    g = fg.closure(_serialized(fg.conjugate_group(fg.from_type("D15"), m)))
    if not (g.order == 30 and 55 < np.linalg.cond(m.matrix) < 65):
        raise RuntimeError("the reproduction no longer builds the ill-conditioned D15")
    assert mt.invariance_defect(mt.averaged_metric(g), g, 200) < 1e-9
