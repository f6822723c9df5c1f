"""Finite Moebius groups as read-only (order, 2, 2) stacks of determinant-1 matrices.

Groups are built by breadth-first closure of a generating set with
projective deduplication (one array pass per frontier), keep the generators
they were closed from, are classified through their element-order census
(element orders in closed form from the traces), and are conjugated into
the rotation group by averaging the Hermitian forms A^H A over the stack
(the averaged form H is positive definite; its triangular factor conjugates
the group onto projectively unitary matrices).
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
                      SpherePoint, chordal_gap, element_orders, fixed_points,
                      homogeneous, normalizing_root, projective_gap,
                      standard_generators)

DEFAULT_CLOSURE_CAP = 200
CLOSURE_BLOCK = 64  # products compared per call; bounds the temporary at 64 x stack
CLUSTER_TOL = 1e-8  # chordal distance identifying sphere points
CLUSTER_BLOCK = 256  # fixed points per gap table; bounds the temporary at 256 x points
SPREAD_SAMPLES = 200  # sphere samples per comparison of two conjugated metrics
SPREAD_CONDITION = 100.0  # condition cap of their random conjugators


@dataclass(frozen=True, eq=False)
class FiniteMoebiusGroup:
    """A finite group as one read-only (order, 2, 2) stack of determinant-1 matrices.

    ``generators`` is a read-only stack of matrices generating the group: the
    normalized inputs of ``closure``, or the whole stack when none are given.
    """
    stack: np.ndarray
    type_tag: GroupType
    generators: np.ndarray | None = None

    def __post_init__(self):
        if self.generators is None:
            object.__setattr__(self, "generators", self.stack)
        self.stack.setflags(write=False)
        self.generators.setflags(write=False)

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


def _classify(stack: np.ndarray) -> GroupType:
    # element orders divide the group order, which may exceed the default cap
    orders = element_orders(stack, max(DEFAULT_ORDER_CAP, len(stack)))
    if not orders.all():
        return GroupType.other()
    return classify_census(len(stack), dict(Counter(orders.tolist())))


def classify_elements(elements) -> GroupType:
    """Type tag of the group made of the given transformations."""
    return _classify(np.array([m.matrix for m in elements]).reshape(-1, 2, 2))


def _nearest(signed: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Per m of a (B, 2, 2) block, ``projective_gap(rows, m).min()`` bit for bit (inf if none),
    from ``signed`` (4, n, 2) holding each row's entries as M and -M; negation is exact."""
    gaps = np.abs(signed.reshape(4, -1, 1) - block.reshape(-1, 4).T[:, None])
    return gaps.max(axis=0).min(axis=0, initial=np.inf)


def closure(generators, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteMoebiusGroup:
    """Breadth-first product closure with projective deduplication, one frontier per pass.

    Round 1 registers the generators; every later frontier is multiplied by the
    ones it registered, in listed order, so a repeated or identity generator adds
    no products.  A round's products come from one stacked matmul; blocks of
    CLOSURE_BLOCK are matched in one call against earlier rounds, the rest in
    order, as if registered one at a time.  Raises InfiniteGroup past ``cap``
    elements, NumericalAmbiguity between the dedup tolerance and ten times it,
    ValueError where MoebiusTransform would.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    signed = np.empty((4, cap, 2), dtype=complex)  # entry, row, sign: each M and -M
    signed[:, 0] = [[1, -1], [0, 0], [0, 0], [1, -1]]
    size = 1
    gens = np.array([MoebiusTransform(g.matrix).matrix for g in generators]).reshape(-1, 2, 2)
    candidates, error, factors = gens, None, None
    while True:
        start = size
        for lo in range(0, len(candidates), CLOSURE_BLOCK):
            block = candidates[lo:lo + CLOSURE_BLOCK]
            for m, best in zip(block, _nearest(signed[:, :start], block)):
                if best >= PROJECTIVE_TOL and size > start:
                    best = np.minimum(best, _nearest(signed[:, start:size], m)[0])
                if best < PROJECTIVE_TOL:
                    continue
                if best < 10 * PROJECTIVE_TOL:
                    raise NumericalAmbiguity(
                        f"two elements at projective distance {best:.3e}; "
                        "tighten the generators")
                if size == cap:
                    raise InfiniteGroup(f"closure exceeded {cap} elements")
                signed[:, size, 0], signed[:, size, 1] = m.ravel(), -m.ravel()
                size += 1
        if error is not None:
            raise error
        if size == start:
            break
        if factors is None:  # the generators round 1 registered: no repeats, no identity
            factors = signed[:, 1:size, 0].T.reshape(-1, 2, 2)
        products = np.matmul(signed[:, start:size, 0].T.reshape(-1, 1, 2, 2), factors[None])
        roots = []
        try:
            for row in products.reshape(-1, 4).tolist():
                roots.append(normalizing_root(*row))
        except ValueError as exc:  # raised once the rows before it are registered
            error = exc
        candidates = products.reshape(-1, 2, 2)[:len(roots)] / np.array(roots)[:, None, None]
    stack = signed[:, :size, 0].T.reshape(-1, 2, 2).copy()
    return FiniteMoebiusGroup(stack, _classify(stack), gens)


def from_type(tag: GroupType | str) -> FiniteMoebiusGroup:
    """Closure of the standard generators for the given type tag."""
    if isinstance(tag, str):
        tag = parse_group_tag(tag)
    return closure(standard_generators(tag))


def conjugate_group(g: FiniteMoebiusGroup, m: MoebiusTransform) -> FiniteMoebiusGroup:
    """m G m^{-1} as one product of stacks, generators too; the type tag is preserved."""
    inverse = m.inverse().matrix
    return FiniteMoebiusGroup(m.matrix @ g.stack @ inverse, g.type_tag,
                              m.matrix @ g.generators @ inverse)


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


def orbit_analysis(g: FiniteMoebiusGroup) -> OrbitData:
    """Fixed points of the non-identity elements, grouped into orbits.

    A fixed point leads its cluster when no earlier one lies within
    CLUSTER_TOL (one chordal-gap table per CLUSTER_BLOCK points): the first
    of each cluster, when clusters are narrower than the tolerance and lie
    farther apart than it.  The images of a representative under the whole
    stack, matched against the representatives, give its orbit and its
    stabilizer.  The class formula |orbit| * stabilizer = |G| is validated
    for every orbit; orbits come back sorted by decreasing size.
    """
    moving = g.stack[projective_gap(g.stack, np.eye(2)) >= PROJECTIVE_TOL]
    if not len(moving):
        raise TrivialGroup("the trivial group fixes everything")
    points = [p for m in moving for p in fixed_points(MoebiusTransform.from_normalized(m))]
    coords = np.array([homogeneous(p) for p in points])
    leads = np.empty(len(points), dtype=bool)
    for lo in range(0, len(points), CLUSTER_BLOCK):
        hi = min(lo + CLUSTER_BLOCK, len(points))
        near = chordal_gap(coords[lo:hi, None], coords[:hi]) < CLUSTER_TOL
        earlier = np.arange(hi) < np.arange(lo, hi)[:, None]
        leads[lo:hi] = ~(near & earlier).any(axis=1)
    reps = [p for p, lead in zip(points, leads) if lead]
    coords = coords[leads]
    assigned = np.zeros(len(reps), dtype=bool)
    orbits: list[Orbit] = []
    for k in range(len(reps)):
        if assigned[k]:
            continue
        hits = chordal_gap((g.stack @ coords[k])[:, None], coords) < CLUSTER_TOL
        if not hits.any(axis=1).all():
            raise RuntimeError("group image of a fixed point missed every cluster")
        members = np.flatnonzero(np.bincount(hits.argmax(axis=1), minlength=len(reps)))
        assigned[members] = True
        stab = int(hits[:, k].sum())
        orbit = Orbit(tuple(reps[i] for i in members), stab)
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


MIN_CONDITION = 1.1  # the lowest condition-number cap of random_conjugator


def random_conjugator(rng: np.random.Generator,
                      max_condition: float = 100.0) -> MoebiusTransform:
    """Random transformation with entries uniform in the unit disc.

    Draws are rejected while the normalized matrix is singular or has
    condition number above ``max_condition``.  No draw is unitary, and the
    share accepted falls towards 0 as the cap nears 1 (measured on 100k
    draws: 0.29 at 2, 2.4e-3 at 1.1, 4.4e-4 at 1.05), so the cap must be at
    least MIN_CONDITION.
    """
    if not max_condition >= MIN_CONDITION:
        raise ValueError(f"max_condition must be at least {MIN_CONDITION}, got {max_condition}")
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
