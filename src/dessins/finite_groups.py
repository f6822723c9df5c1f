"""Finite Moebius groups as read-only (order, 2, 2) stacks of determinant-1 matrices.

Groups are built by breadth-first closure of a generating set with
projective deduplication (each product is normalized by ``normalizing_root``
and compared, in Python arithmetic, only with the elements whose sort key
lies near its own; a large round first drops, in numpy, the products that
certainly repeat an element), keep the
generators they were closed from, are classified through their order census
(element orders in closed form from the traces), and are conjugated into
the rotation group by averaging the Hermitian forms A^H A over the stack
(the averaged form H is positive definite; its triangular factor conjugates
the group onto projectively unitary matrices).
"""

from __future__ import annotations

import bisect
import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CyclicGroupUnsupported, InfiniteGroup, NumericalAmbiguity, TrivialGroup
from .grouptypes import GroupType, classify_census, parse_group_tag
from .moebius import (_MAX_ORDER_CAP, DEFAULT_ORDER_CAP, PROJECTIVE_TOL, MoebiusTransform,
                      SpherePoint, _fixed_points, chordal_gap, element_orders,
                      homogeneous, normalizing_root, projective_gap, standard_generators)

DEFAULT_CLOSURE_CAP = 200
CLOSURE_BULK = 64  # rounds of this many products first drop their certain repeats as arrays
CLOSURE_BLOCK = 2048  # products formed at once in a round; bounds its temporaries
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


def element_order_cap(n: int) -> int:
    """The element-order cap of a group of up to n elements: n, and at least
    DEFAULT_ORDER_CAP; NumericalAmbiguity past the largest cap that orders resolve at."""
    if n > _MAX_ORDER_CAP:
        raise NumericalAmbiguity(f"element orders cannot be resolved at tolerance "
                                 f"{PROJECTIVE_TOL:g} in a group of up to {n} elements; "
                                 f"the limit is {_MAX_ORDER_CAP}")
    return max(DEFAULT_ORDER_CAP, n)


def _classify(stack: np.ndarray) -> GroupType:
    # element orders divide the group order, which may exceed the default cap
    orders = element_orders(stack, element_order_cap(len(stack)))
    if not orders.all():
        return GroupType.other()
    return classify_census(len(stack), dict(Counter(orders.tolist())))


def classify_elements(elements) -> GroupType:
    """Type tag of the group made of the given transformations."""
    return _classify(np.array([m.matrix for m in elements]).reshape(-1, 2, 2))


class _KeyIndex:
    """Matrices as their entries (a, b, c, d), sorted by the sign-free key |Re(c . vec M)|.

    For a fixed generic complex c, |Re(c . vec M)| - |Re(c . vec N)| is at most
    sum|c_i| times projective_gap(M, N), so every matrix within 10 * PROJECTIVE_TOL
    of another has its key within ``_keys``' reach of the other's key, and
    only the matrices in that window are compared exactly.
    """

    def __init__(self):
        self.keys, self.entries = [], []  # keys ascending, and the entries of each

    def add(self, key: float, entries: list[complex]):
        at = bisect.bisect(self.keys, key)
        self.keys.insert(at, key)
        self.entries.insert(at, entries)

    def nearest(self, m: list[complex], key: float, reach: float, unclipped: bool) -> float:
        """The least projective_gap from the entries m to the matrices in its key window (inf if
        none), by Python's abs; numpy's, which may differ in the last bit, decides in _GAP_BAND."""
        lo = bisect.bisect_left(self.keys, key - reach)
        hi = bisect.bisect_right(self.keys, key + reach, lo)
        if lo == hi:
            return np.inf
        a, b, c, d = m
        best = np.inf if unclipped else PROJECTIVE_TOL  # else inf - inf: nan, which max drops
        try:
            for p, q, r, s in self.entries[lo:hi] if unclipped else ():
                best = min(best, max(abs(a - p), abs(b - q), abs(c - r), abs(d - s)),
                           max(abs(a + p), abs(b + q), abs(c + r), abs(d + s)))
        except OverflowError:  # where numpy's abs gives inf
            best = PROJECTIVE_TOL
        if _GAP_BAND[0] <= best <= _GAP_BAND[1]:
            best = projective_gap(np.reshape(self.entries[lo:hi], (-1, 2, 2)),
                                  np.reshape(m, (2, 2))).min()
        return best

    def nearest_many(self, block: np.ndarray, keys: np.ndarray, reaches: np.ndarray) -> np.ndarray:
        """``nearest`` of each matrix of a (B, 2, 2) block by numpy, in one gap table."""
        order, stack = np.array(self.keys), np.reshape(self.entries, (-1, 2, 2))
        lo = order.searchsorted(keys - reaches, "left")
        counts = order.searchsorted(keys + reaches, "right") - lo
        best = np.full(len(block), np.inf)
        hit = counts > 0
        if hit.any():
            starts = np.cumsum(counts) - counts
            owner = np.repeat(np.arange(len(block)), counts)
            at = np.arange(starts[-1] + counts[-1]) + np.repeat(lo - starts, counts)
            gaps = projective_gap(stack[at], block[owner])
            best[hit] = np.minimum.reduceat(gaps, starts[hit])
        return best


_GAP_BAND = (PROJECTIVE_TOL * (1 - 1e-12), 10 * PROJECTIVE_TOL * (1 + 1e-12))  # numpy decides
# The key's c, and its factors of the real and imaginary parts of vec M:
# Re(c z) = c.re z.re - c.im z.im.  A window reaches 10 * PROJECTIVE_TOL * sum|c_i|
# (widened by 1e-6 of itself) plus _KEY_ROUNDING times sum |part * factor|, which
# covers the rounding of both keys, of the key sums of 8 terms, many times over.
_KEY_C = np.array([0.8147 + 0.1270j, -0.6324 + 0.9058j, 0.2785 - 0.5469j, -0.9575 - 0.4854j])
_KEY_PARTS = np.column_stack([_KEY_C.real, -_KEY_C.imag]).ravel()
_KEY_WEIGHTS = np.abs(_KEY_PARTS)
_KEY_FACTORS, _KEY_MODULI = _KEY_C.tolist(), np.abs(_KEY_C).tolist()
_KEY_REACH = 10 * PROJECTIVE_TOL * sum(_KEY_MODULI) * (1 + 1e-6)
_KEY_ROUNDING = 1e-14
_KEY_CLIP = 1e300  # parts are clipped to it: no key overflows, and clipping shortens no gap
_KEY_UNCLIPPED = _KEY_CLIP * min(_KEY_MODULI)  # below it, sum |c_i| |entry i| clips no part


def _keys(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Key of each matrix of a C-contiguous (B, 2, 2) block, and the reach of its window."""
    parts = np.minimum(np.maximum(block.view(float).reshape(-1, 8), -_KEY_CLIP), _KEY_CLIP)
    return np.abs(parts @ _KEY_PARTS), _KEY_REACH + _KEY_ROUNDING * (np.abs(parts) @ _KEY_WEIGHTS)


def _key(a: complex, b: complex, c: complex, d: complex) -> tuple[float, float, bool]:
    """``_keys`` of one matrix from its entries, in Python arithmetic, which never warns,
    and whether no part is clipped; the reach is from sum |c_i| |entry i|, over that of parts."""
    m0, m1, m2, m3 = _KEY_MODULI
    scale = m0 * abs(a) + m1 * abs(b) + m2 * abs(c) + m3 * abs(d)
    if not scale < _KEY_UNCLIPPED:  # a part may reach the clip, or is not finite
        keys, reaches = _keys(np.array([a, b, c, d], dtype=complex))
        return float(keys[0]), float(reaches[0]), False
    c0, c1, c2, c3 = _KEY_FACTORS
    return abs((c0 * a + c1 * b + c2 * c + c3 * d).real), _KEY_REACH + _KEY_ROUNDING * scale, True


def _product_blocks(frontier: np.ndarray, factors: np.ndarray):
    """Raw products w g of the frontier rows w with the factors g, frontier-major, in
    (B, 2, 2) blocks of about CLOSURE_BLOCK."""
    step = max(1, CLOSURE_BLOCK // len(factors))
    for lo in range(0, len(frontier), step):
        yield np.matmul(frontier[lo:lo + step, None], factors[None]).reshape(-1, 2, 2)


def _repeats(block: np.ndarray, index: _KeyIndex) -> np.ndarray:
    """Which raw products of a (B, 2, 2) block certainly repeat an indexed element.

    Each product is divided by numpy's root of its determinant, taken with
    Python's bits as in ``normalizing_root``.  That root is within about an ulp
    of ``normalizing_root``'s, up to sign, so the quotient lies within a slack
    of 64 eps times its largest entry of the exact one, and a product whose gap
    plus the slack is below PROJECTIVE_TOL is one the exact lookup drops too.
    A determinant ``normalizing_root`` rejects gives nan, which is never dropped.
    """
    a, b, c, d = block.reshape(-1, 4).T
    with np.errstate(all="ignore"):
        re = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
        im = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
        size = np.abs(re) + np.abs(im)  # at least hypot: the singular test, with room
        det = np.where((2e-14 <= size) & (size <= sys.float_info.max), re + 1j * im, np.nan)
        approx = block / np.sqrt(det)[:, None, None]
        slack = 64 * np.finfo(float).eps * np.abs(approx).max(axis=(1, 2))
        return index.nearest_many(approx, *_keys(approx)) + slack < PROJECTIVE_TOL


def _normalized(products: np.ndarray) -> tuple[np.ndarray, ValueError | None]:
    """The entries (a, b, c, d) of each product divided by its ``normalizing_root``, as
    MoebiusTransform normalizes them, up to the first product that cannot be
    normalized, and that product's ValueError (None if every one can)."""
    rows = products.reshape(-1, 4)
    roots, error = [], None
    try:
        for row in rows.tolist():
            roots.append(normalizing_root(*row))
    except ValueError as exc:
        error = exc
    divisor = roots[0] if len(roots) == 1 else np.array(roots, dtype=complex)[:, None]
    return rows[:len(roots)] / divisor, error


@np.errstate(over="ignore", invalid="ignore")  # a product that overflows raises as a ValueError
def closure(generators, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteMoebiusGroup:
    """Breadth-first product closure with projective deduplication, one frontier per pass.

    Round 1 registers the generators; every later frontier is multiplied by the
    ones it registered, in listed order, so a repeated or identity generator adds
    no products.  Products are registered one at a time, in order, unless
    ``_KeyIndex.nearest`` finds an element within PROJECTIVE_TOL.  A round of
    fewer than CLOSURE_BULK products is one matmul; a larger one comes from
    ``_product_blocks``, and each block first drops the products that
    ``_repeats`` finds repeating an element registered before it.  The products
    left are normalized by ``_normalized``, one ``normalizing_root`` each.
    Raises InfiniteGroup past ``cap`` elements, NumericalAmbiguity between the
    dedup tolerance and ten times it, ValueError where MoebiusTransform would.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    stack = np.empty((cap, 2, 2), dtype=complex)
    flat = stack.reshape(cap, 4)  # a view, written one registered row of entries at a time
    flat[0] = identity = [1 + 0j, 0j, 0j, 1 + 0j]
    index = _KeyIndex()
    index.add(_key(*identity)[0], identity)
    size = 1
    gens = np.array([MoebiusTransform(g.matrix).matrix for g in generators]).reshape(-1, 2, 2)
    blocks, factors = [(gens.reshape(-1, 4), None)], None
    while True:
        start = size
        for rows, error in blocks:
            for m in rows.tolist():
                key, reach, unclipped = _key(*m)
                best = index.nearest(m, key, reach, unclipped)
                if best < PROJECTIVE_TOL:
                    continue
                if best < 10 * PROJECTIVE_TOL:
                    raise NumericalAmbiguity(f"two elements at projective distance {best:.3e}; "
                                             "tighten the generators")
                if size == cap:
                    raise InfiniteGroup(f"closure exceeded {cap} elements")
                flat[size] = m
                index.add(key, m)
                size += 1
            if error is not None:  # raised once the rows before it are registered
                raise error
        if size == start:
            break
        if factors is None:  # the generators round 1 registered: no repeats, no identity
            factors = stack[1:size]
        frontier = stack[start:size]
        if len(frontier) * len(factors) < CLOSURE_BULK:
            blocks = [_normalized(np.matmul(frontier[:, None], factors[None]))]
        else:  # lazy: each block drops its repeats of the elements registered before it
            blocks = (_normalized(p[~_repeats(p, index)])
                      for p in _product_blocks(frontier, factors))
    stack = stack[:size].copy()
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
    points = [p for row in moving.reshape(-1, 4).tolist() for p in _fixed_points(*row)]
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
