"""Finite Moebius groups as read-only (order, 2, 2) stacks of determinant-1 matrices.

Groups are built by breadth-first closure of a generating set with
projective deduplication, classified through their element-order census
(one power walk of the whole stack), and conjugated into the rotation
group by averaging the Hermitian forms A^H A over the stack (the averaged
form H is positive definite; its triangular factor conjugates the group
onto projectively unitary matrices).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (CyclicGroupUnsupported, InfiniteGroup, NumericalAmbiguity,
                     TrivialGroup)
from .grouptypes import GroupType, classify_census, parse_group_tag
from .moebius import (DEFAULT_ORDER_CAP, PROJECTIVE_TOL, MoebiusTransform,
                      SpherePoint, chordal_distance, element_orders,
                      fixed_points, projective_gap, standard_generators)

DEFAULT_CLOSURE_CAP = 200
CLUSTER_TOL = 1e-8  # chordal distance identifying sphere points
SPREAD_SAMPLES = 200  # sphere samples per comparison of two conjugated metrics
SPREAD_CONDITION = 100.0  # condition cap of their random conjugators


@dataclass(frozen=True, eq=False)
class FiniteMoebiusGroup:
    """A finite group as one read-only (order, 2, 2) stack of determinant-1 matrices."""
    stack: np.ndarray
    type_tag: GroupType

    def __post_init__(self):
        self.stack.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.stack)

    @property
    def elements(self) -> tuple[MoebiusTransform, ...]:
        """The stack's matrices as transformations, in stack order."""
        return tuple(MoebiusTransform.from_normalized(m) for m in self.stack)

    def to_json(self) -> dict:
        return {"type": str(self.type_tag),
                "elements": [m.to_entries() for m in self.elements]}

    @staticmethod
    def from_json(data: dict) -> "FiniteMoebiusGroup":
        mats = [MoebiusTransform.from_entries(e).matrix for e in data["elements"]]
        return FiniteMoebiusGroup(np.array(mats).reshape(-1, 2, 2),
                                  parse_group_tag(data["type"]))


@dataclass(frozen=True)
class Orbit:
    points: tuple[SpherePoint, ...]
    stabilizer_order: int


@dataclass(frozen=True)
class OrbitData:
    orbits: tuple[Orbit, ...]
    group_order: int

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(o.points) for o in self.orbits)


def is_abelian(stack: np.ndarray) -> bool:
    """Do all matrices of the stack commute projectively?  One row of products at a time."""
    return all(projective_gap(a @ stack, stack @ a).max() < PROJECTIVE_TOL for a in stack)


def _classify(stack: np.ndarray) -> GroupType:
    # element orders divide the group order, which may exceed the default cap
    orders = element_orders(stack, max(DEFAULT_ORDER_CAP, len(stack)))
    if not orders.all():
        return GroupType.other()
    if (orders == len(stack)).any():  # an element of full order: cyclic, so abelian
        return GroupType.cyclic(len(stack))
    return classify_census(len(stack), dict(Counter(orders.tolist())), is_abelian(stack))


def classify_elements(elements) -> GroupType:
    """Type tag of the group made of the given transformations."""
    return _classify(np.array([m.matrix for m in elements]).reshape(-1, 2, 2))


def closure(generators, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteMoebiusGroup:
    """Breadth-first product closure with projective deduplication.

    Raises InfiniteGroup past ``cap`` elements and NumericalAmbiguity if a
    product lands in the unreliable band between the dedup tolerance and
    ten times it.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    stack = np.empty((cap, 2, 2), dtype=complex)
    stack[0] = np.eye(2)
    size = 1

    def register(m: np.ndarray) -> bool:
        nonlocal size
        best = projective_gap(stack[:size], m).min()
        if best < PROJECTIVE_TOL:
            return False
        if best < 10 * PROJECTIVE_TOL:
            raise NumericalAmbiguity(
                f"two elements at projective distance {best:.3e}; "
                "tighten the generators")
        if size == cap:
            raise InfiniteGroup(f"closure exceeded {cap} elements")
        stack[size] = m
        size += 1
        return True

    gens = [MoebiusTransform(g.matrix).matrix for g in generators]
    frontier = [g for g in gens if register(g)]
    while frontier:
        products = (MoebiusTransform(w @ g).matrix for w in frontier for g in gens)
        frontier = [p for p in products if register(p)]
    stack = stack[:size].copy()
    return FiniteMoebiusGroup(stack, _classify(stack))


def from_type(tag: GroupType | str) -> FiniteMoebiusGroup:
    """Closure of the standard generators for the given type tag."""
    if isinstance(tag, str):
        tag = parse_group_tag(tag)
    return closure(standard_generators(tag))


def conjugate_group(g: FiniteMoebiusGroup, m: MoebiusTransform) -> FiniteMoebiusGroup:
    """m G m^{-1} as one product of stacks; the type tag is preserved."""
    return FiniteMoebiusGroup(m.matrix @ g.stack @ m.inverse().matrix, g.type_tag)


def averaged_hermitian_form(g: FiniteMoebiusGroup) -> np.ndarray:
    """H = mean of A^H A over the normalized lifts; positive definite Hermitian."""
    stack = g.stack
    h = np.mean(np.conj(np.transpose(stack, (0, 2, 1))) @ stack, axis=0)
    return (h + h.conj().T) / 2.0


def unitarize(g: FiniteMoebiusGroup) -> MoebiusTransform:
    """A transformation phi with phi G phi^{-1} projectively unitary.

    Factor the averaged form H = P^H P; invariance A^H H A = H then gives
    (P A P^{-1})^H (P A P^{-1}) = I exactly.
    """
    h = averaged_hermitian_form(g)
    lower = np.linalg.cholesky(h)
    return MoebiusTransform(lower.conj().T)


def is_in_SO3(g: FiniteMoebiusGroup, tol: float = 1e-8) -> bool:
    """Is every element projectively unitary, i.e. a rotation of the sphere?"""
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = g.stack
    return bool(np.abs(np.conj(np.transpose(s, (0, 2, 1))) @ s - np.eye(2)).max() < tol)


def _cluster_points(points: list[SpherePoint]) -> list[SpherePoint]:
    reps: list[SpherePoint] = []
    for p in points:
        if all(chordal_distance(p, r) >= CLUSTER_TOL for r in reps):
            reps.append(p)
    return reps


def _find_cluster(reps, p: SpherePoint) -> int:
    for k, r in enumerate(reps):
        if chordal_distance(p, r) < CLUSTER_TOL:
            return k
    raise RuntimeError("group image of a fixed point missed every cluster")


def orbit_analysis(g: FiniteMoebiusGroup) -> OrbitData:
    """Fixed points of the non-identity elements, grouped into orbits.

    The class formula |orbit| * stabilizer = |G| is validated for every
    orbit; orbits come back sorted by decreasing size.
    """
    elements = g.elements
    non_identity = [m for m in elements if not m.is_identity()]
    if not non_identity:
        raise TrivialGroup("the trivial group fixes everything")
    reps = _cluster_points([p for m in non_identity for p in fixed_points(m)])
    assigned = [False] * len(reps)
    orbits: list[Orbit] = []
    for k, rep in enumerate(reps):
        if assigned[k]:
            continue
        members: set[int] = set()
        for m in elements:
            members.add(_find_cluster(reps, m.apply(rep)))
        for idx in members:
            assigned[idx] = True
        stab = sum(1 for m in elements
                   if chordal_distance(m.apply(rep), rep) < CLUSTER_TOL)
        orbit = Orbit(tuple(reps[i] for i in sorted(members)), stab)
        if len(orbit.points) * stab != g.order:
            raise RuntimeError(
                f"class formula violated: {len(orbit.points)} * {stab} != {g.order}")
        orbits.append(orbit)
    orbits.sort(key=lambda o: len(o.points), reverse=True)
    return OrbitData(tuple(orbits), g.order)


def burnside_consistent(data: OrbitData) -> bool:
    """Sum of 1/stabilizer over orbits equals k - 2 + 2/|G|, exactly."""
    k = len(data.orbits)
    lhs = sum(Fraction(1, o.stabilizer_order) for o in data.orbits)
    return lhs == k - 2 + Fraction(2, data.group_order)


def random_conjugator(rng: np.random.Generator,
                      max_condition: float = 100.0) -> MoebiusTransform:
    """Random transformation with entries uniform in the unit disc.

    Draws are rejected while the normalized matrix is singular or has
    condition number above ``max_condition``, which must be at least 1.
    """
    if not max_condition >= 1.0:
        raise ValueError(f"max_condition must be at least 1, got {max_condition}")
    while True:
        flat = []
        while len(flat) < 4:
            x, y = rng.uniform(-1.0, 1.0, 2)
            if x * x + y * y <= 1.0:
                flat.append(complex(x, y))
        m = np.array(flat).reshape(2, 2)
        if abs(np.linalg.det(m)) < 1e-9:
            continue
        cand = MoebiusTransform(m)
        if np.linalg.cond(cand.matrix) <= max_condition:
            return cand


def conjugator_well_defined(g: FiniteMoebiusGroup, trials: int = 3,
                            seed: int = 0) -> float:
    """Spread between sphere metrics built through independent conjugators.

    Each trial moves the group by a random transformation, unitarizes the
    moved copy and pulls the round metric back through the combined map;
    for non-cyclic groups all trials must produce the same metric.  Cyclic
    groups are rejected: their normalizer is too large for the metric to
    be pinned down.
    """
    from .metrics import metric_distance, pullback, round_metric

    if trials < 2:
        raise ValueError("need at least 2 trials to compare")
    if g.type_tag.is_cyclic:
        raise CyclicGroupUnsupported(
            f"{g.type_tag} is cyclic; the conjugated metric is not canonical")
    rng = np.random.default_rng(seed)
    rnd = round_metric()
    conjugators = [random_conjugator(rng, SPREAD_CONDITION) for _ in range(trials)]
    metrics = [pullback(unitarize(conjugate_group(g, m)).compose(m), rnd) for m in conjugators]
    return max(metric_distance(a, b, SPREAD_SAMPLES)
               for a, b in itertools.combinations(metrics, 2))
