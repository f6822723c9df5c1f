"""Combinatorial dessins: bicolored maps encoded by a pair of permutations.

A dessin on ``n`` darts is a pair (sigma_white, sigma_black) of
permutations of the darts: the counterclockwise rotations around white
and black vertices respectively.  Faces are the cycles of
sigma_white∘sigma_black (black rotation applied first).  Everything in
this module is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import permutations as perms
from .errors import Disconnected, MalformedInput, NotAPermutation
from .grouptypes import GroupType, classify_census


@dataclass(frozen=True)
class Dessin:
    """Two rotations of the darts, with the face rotation and the cycles of all three.

    ``rotations`` holds the white, black and face rotations as the rows of
    one read-only (3, n) int32 array, and ``dart_cycle_lengths`` the length
    of each dart's cycle under each of them, row for row.  ``cycles`` holds
    the white, black and face cycles, in that order; each cycle is led by
    its least dart and the cycles are listed by it, so the first cycle of
    each holds dart 0.  ``walk`` holds the darts in the breadth-first order
    of ``perms.walk``, as a read-only int32 array.  The derived fields are
    computed once, after validation, and left out of ``==``, hash and ``repr``.
    """
    dart_count: int
    sigma_white: tuple[int, ...]
    sigma_black: tuple[int, ...]
    face_permutation: tuple[int, ...] = field(init=False, repr=False, compare=False)
    rotations: np.ndarray = field(init=False, repr=False, compare=False)
    cycles: tuple[tuple[tuple[int, ...], ...], ...] = field(init=False, repr=False, compare=False)
    dart_cycle_lengths: np.ndarray = field(init=False, repr=False, compare=False)
    walk: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.dart_count
        if n < 1:
            raise MalformedInput("dart count must be positive")
        sigmas = (self.sigma_white, self.sigma_black)
        if len(self.sigma_white) != n or len(self.sigma_black) != n:
            raise NotAPermutation("not a bijection of the darts")
        try:  # an entry that is not an int gives another dtype; one that is a sequence, an error
            given = np.array(sigmas)
        except ValueError:
            given = np.array(())
        if given.dtype.kind not in "iu" or not (np.sort(given) == np.arange(n)).all():
            raise NotAPermutation("not a bijection of the darts")
        walk = np.array(perms.walk(sigmas, n), dtype=np.int32)
        if len(walk) < n:
            raise Disconnected("the two rotations do not generate a transitive action")
        rotations = np.empty((3, n), dtype=np.int32)
        rotations[:2] = given
        rotations[0].take(rotations[1], out=rotations[2])
        face = tuple(rotations[2].tolist())
        cycles = tuple(tuple(perms.cycles(p)) for p in (*sigmas, face))
        # each dart's cycle length: the lengths repeated over the concatenated cycles
        # of all three rotations, the darts of row k shifted by k * n
        flat = [c for row in cycles for c in row]
        sizes = np.fromiter(map(len, flat), dtype=np.int32, count=len(flat))
        darts = np.fromiter(itertools.chain.from_iterable(flat), dtype=np.intp, count=3 * n)
        lengths = np.empty((3, n), dtype=np.int32)
        lengths.reshape(-1)[darts + np.arange(0, 3 * n, n).repeat(n)] = sizes.repeat(sizes)
        for array in (rotations, lengths, walk):
            array.setflags(write=False)
        for name, value in (("face_permutation", face), ("rotations", rotations),
                            ("cycles", cycles), ("dart_cycle_lengths", lengths), ("walk", walk)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Passport:
    white_degrees: tuple[int, ...]
    black_degrees: tuple[int, ...]
    face_half_degrees: tuple[int, ...]
    degree: int


@dataclass(frozen=True)
class TriangulatedMap:
    triangle_count: int
    butterfly_count: int
    # (white vertex id, black vertex id, face id, sign) with sign in {+1, -1}
    triangles: tuple[tuple[int, int, int, int], ...]
    butterfly_pairs: tuple[tuple[int, int], ...]


class PermGroup:
    """A group of dart permutations as one read-only (order, n) int32 stack.

    Rows are sorted by their image of dart 0 (stably), which for a group
    acting freely, such as a dessin's automorphism group, is the
    lexicographic order.  Equality compares the stacks.
    """

    __slots__ = ("stack",)

    def __init__(self, elements):
        stack = np.array(elements, dtype=np.int32, ndmin=2, copy=None)
        if not stack.size:
            raise ValueError("a group needs at least one element, on at least one dart")
        if (stack[1:, 0] < stack[:-1, 0]).any():
            stack = stack[np.argsort(stack[:, 0], kind="stable")]
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)

    def __setattr__(self, name, value):
        raise AttributeError("PermGroup is immutable")

    @property
    def order(self) -> int:
        return len(self.stack)

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """The stack's rows as permutation tuples, in stack order."""
        return tuple(map(tuple, self.stack.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return np.array_equal(self.stack, other.stack)

    def __repr__(self) -> str:
        return f"PermGroup(order={self.order}, darts={self.stack.shape[1]})"


def load_json(text: str):
    """json.loads of text; text that is not JSON, or nests too deeply to parse, is MalformedInput."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc


def parse_dessin(text: str) -> Dessin:
    """Parse the JSON dessin format.

    Expected shape: ``{"darts": n, "sigma_white": [[...], ...],
    "sigma_black": [[...], ...]}`` with 1-based dart labels written in
    disjoint cycles; darts missing from every cycle are fixed.
    """
    data = load_json(text)
    if not isinstance(data, dict):
        raise MalformedInput("top-level value must be an object")
    for key in ("darts", "sigma_white", "sigma_black"):
        if key not in data:
            raise MalformedInput(f"missing key {key!r}")
    n = data["darts"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MalformedInput("'darts' must be a positive integer")
    keys = ("sigma_white", "sigma_black")
    for key in keys:
        cycles = data[key]
        if not isinstance(cycles, list) or not all(isinstance(c, list) for c in cycles):
            raise MalformedInput(f"{key!r} must be a list of cycles")
    # a dart in no cycle is fixed by both rotations, so it is cut off unless it is
    # the only one; checked before n is used as a size
    listed = sum(len(c) for key in keys for c in data[key])
    if n > 1 and listed < n:
        raise Disconnected(f"{n} darts but only {listed} labels in the cycles; "
                           "an unlisted dart is fixed by both rotations")
    return Dessin(n, *(_rotation(data[key], n) for key in keys))


def _rotation(cycles: list[list], n: int) -> tuple[int, ...]:
    """The permutation of {0..n-1} written by 1-based disjoint cycles; unlisted darts are fixed.

    The labels are checked in bulk.  On a bad one, NotAPermutation names the
    first in file order with its first failing check: type, range, repeat.
    """
    flat = list(itertools.chain.from_iterable(cycles))
    labels = None
    if set(map(type, flat)) <= {int}:  # bool is a subclass of int, not int
        try:
            labels = np.array(flat, dtype=np.int64)
        except OverflowError:  # beyond int64, so outside 1..n
            pass
    if labels is None or len(labels) and (labels.min() < 1 or labels.max() > n
                                          or np.bincount(labels).max() > 1):
        seen: set[int] = set()
        for label in flat:
            if type(label) is not int:
                raise NotAPermutation(f"dart label {label!r} is not an integer")
            if label < 1 or label > n:
                raise NotAPermutation(f"dart label {label} outside 1..{n}")
            if label in seen:
                raise NotAPermutation(f"dart {label} appears twice")
            seen.add(label)
    labels -= 1
    # position k of the flat labels is followed by k + 1, or by its cycle's start if it ends one
    sizes = np.fromiter(map(len, cycles), dtype=np.intp, count=len(cycles))
    sizes = sizes[sizes > 0]
    ends = sizes.cumsum()
    after = np.arange(1, len(labels) + 1)
    after[ends - 1] = ends - sizes
    out = np.arange(n)
    out[labels] = labels.take(after)
    return tuple(out.tolist())


def genus(d: Dessin) -> int:
    """Genus from the Euler characteristic 2 - 2g = vertices + faces - edges."""
    return 1 - (sum(map(len, d.cycles)) - d.dart_count) // 2


def passport(d: Dessin) -> Passport:
    """Vertex-degree and face-half-degree multisets (the ramification profile), descending."""
    white, black, faces = (tuple(sorted(map(len, c), reverse=True)) for c in d.cycles)
    return Passport(white, black, faces, d.dart_count)


def riemann_hurwitz_holds(d: Dessin) -> bool:
    """2 - 2g == 2*degree - sum(e - 1) over every passport entry."""
    p = passport(d)
    total = sum(e - 1 for part in (p.white_degrees, p.black_degrees, p.face_half_degrees)
                for e in part)
    return 2 - 2 * genus(d) == 2 * p.degree - total


def _cycle_index(cycles, n: int) -> list[int]:
    """The id of each dart's cycle: its position in ``cycles``."""
    idx = [0] * n
    for k, cyc in enumerate(cycles):
        for d in cyc:
            idx[d] = k
    return idx


def triangulate(d: Dessin) -> TriangulatedMap:
    """Split each face into triangles (white, black, center); pair them into butterflies.

    Each dart contributes one positive triangle at its own (white, black)
    corner and one negative triangle sharing the black-center edge, so a
    face of half-degree p carries 2p triangles and every dart carries one
    butterfly.
    """
    wid, bid, fid = (_cycle_index(c, d.dart_count) for c in d.cycles)
    face = d.face_permutation
    triangles: list[tuple[int, int, int, int]] = []
    pairs: list[tuple[int, int]] = []
    for dart in range(d.dart_count):
        nxt = face[dart]  # next corner counterclockwise inside the same face
        plus = (wid[dart], bid[dart], fid[dart], +1)
        minus = (wid[nxt], bid[dart], fid[dart], -1)
        triangles.append(plus)
        triangles.append(minus)
        pairs.append((2 * dart, 2 * dart + 1))
    return TriangulatedMap(
        triangle_count=len(triangles),
        butterfly_count=d.dart_count,
        triangles=tuple(triangles),
        butterfly_pairs=tuple(pairs),
    )


def _move_rows(a: np.ndarray, to: list[int]) -> None:
    """Move row r of ``a`` to row ``to[r]``, in place, one cycle of ``to`` at a time.

    Rows pass through two preallocated carry rows, so no row is allocated.
    """
    moved = [False] * len(to)
    carry, spare = np.empty((2, a.shape[1]), dtype=a.dtype)
    for start in range(len(to)):
        if moved[start]:
            continue
        r = start
        carry[:] = a[start]
        while not moved[r]:  # carry holds the old row r
            moved[r] = True
            r = to[r]
            spare[:] = a[r]
            a[r] = carry
            carry, spare = spare, carry


def automorphisms(d: Dessin) -> PermGroup:
    """All dart permutations commuting with both rotations.

    For a connected dessin this centralizer acts freely, so each
    automorphism is fixed by the image of dart 0 and the group order
    divides the dart count.  The candidates are the darts whose white,
    black and face cycles are as long as those through dart 0.  Row r of
    the table holds their images of ``d.walk[r]``.  Edge 2k + v leaves row
    k by the white (v = 0) or black (v = 1) rotation.  The edges where the
    running maximum of the target rows grows are the walk's tree: each
    fills its row with one gather from its parent row.  The other edges are
    checks.  The rows double, and after each doubling the checks whose rows
    are filled are compared in chunked 2-D blocks.  While the live count does
    not divide the dart count, each new row also kills the candidates whose
    images there have other cycle lengths than the row's dart.  Failed
    candidates are compacted away once they outnumber the kept ones, and the
    search stops when only the identity is left.
    """
    n = d.dart_count
    rotations = tuple(d.rotations[:2])
    both = d.rotations[:2].reshape(-1)  # white, then black at an offset of n
    lengths = d.dart_cycle_lengths
    candidates = np.logical_and.reduce(lengths == lengths[:, :1]).nonzero()[0]
    rank = np.empty(n, dtype=np.int32)
    rank[d.walk] = np.arange(n, dtype=np.int32)
    targets = rank.take(d.rotations[:2].take(d.walk, axis=1).T).reshape(-1)  # of edge 2k + v
    reached = np.maximum.accumulate(targets)
    grows = np.concatenate(([targets[0] > 0], reached[1:] > reached[:-1]))
    edges = np.arange(2 * n, dtype=np.int32)
    tree, checks = edges.compress(grows), edges.compress(~grows)  # tree[r - 1] fills row r
    rows, others, offsets = checks >> 1, targets[checks], (checks & 1) * n
    # needs[k]: the last row that checks 0..k read; they are ready once it is filled
    needs = np.maximum.accumulate(np.maximum(rows, others))
    images = np.array([candidates], dtype=np.int32)  # row r: images of walk[r]
    alive = np.ones(len(candidates), dtype=bool)
    done = 0
    while True:
        ready = needs.searchsorted(len(images))
        step = max(1, 2**14 // len(alive))
        for k in range(done, ready, step):
            part = slice(k, min(k + step, ready))
            alive &= (both.take(images.take(rows[part], axis=0) + offsets[part, None])
                      == images.take(others[part], axis=0)).all(axis=0)
        done = ready
        live = np.count_nonzero(alive)
        if live == 1:  # the identity
            return PermGroup(np.arange(n)[None])
        if 2 * live < len(alive):
            images = images.compress(alive, axis=1)
            alive = alive[alive]
        if len(images) == n:
            break
        filled = len(images)
        images.resize((min(2 * filled, n), images.shape[1]), refcheck=False)
        for row, edge in enumerate(tree[filled - 1:len(images) - 1].tolist(), filled):
            # every index is a dart; mode "raise" would buffer the output row
            rotations[edge & 1].take(images[edge >> 1], out=images[row], mode="wrap")
        if n % live:  # a false candidate is left, and its images may change a cycle length
            for k in range(filled, len(images), step):
                part = slice(k, min(k + step, len(images)))
                alive &= (lengths.take(images[part], axis=1)
                          == lengths.take(d.walk[part], axis=1)[..., None]).all(axis=(0, 1))
    if not alive.all():
        images = images.compress(alive, axis=1)
    _move_rows(images, d.walk.tolist())
    return PermGroup(images.T)


def brute_force_automorphisms(d: Dessin) -> PermGroup:
    """Independent oracle: the centralizer of sigma_white, filtered by sigma_black (small n only).

    A permutation commuting with sigma_white sends each white cycle onto a
    white cycle of the same length and is fixed by where each cycle's first
    dart goes: every bijection between cycles of equal length, with every
    start dart on the target cycle, is enumerated, and those commuting with
    sigma_black are kept.
    """
    sb = d.sigma_black
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cycle in d.cycles[0]:
        by_length.setdefault(len(cycle), []).append(cycle)
    classes = list(by_length.values())
    maps_per_class = [[(targets, starts)
                       for targets in itertools.permutations(cycles)
                       for starts in itertools.product(range(len(cycles[0])), repeat=len(cycles))]
                      for cycles in classes]
    els = []
    for choice in itertools.product(*maps_per_class):
        image = [0] * d.dart_count
        for cycles, (targets, starts) in zip(classes, choice):
            for cycle, target, start in zip(cycles, targets, starts):
                for k, dart in enumerate(cycle):
                    image[dart] = target[(start + k) % len(target)]
        if all(image[sb[x]] == sb[image[x]] for x in range(d.dart_count)):
            els.append(tuple(image))
    return PermGroup(els)


def _element_orders(stack: np.ndarray) -> np.ndarray:
    """Order of each element of a group acting freely on dart 0, by prime-power descent.

    Elements are indexed by their image of dart 0, where a∘b sends it
    where a sends b's image.  For each p^e exactly dividing the order m,
    all elements are raised to the power m / p^e by squaring and then to
    p-th powers until the identity.  A stack that these products show is
    not a group raises ValueError.
    """
    m = len(stack)
    where = np.full(stack.shape[1], -1, dtype=np.intp)
    where[stack[:, 0]] = np.arange(m)
    identity = where[0]
    if identity < 0:
        raise ValueError("not a group: no element fixes dart 0")

    def power(a, k):
        result = a
        for bit in bin(k)[3:]:
            for factor in (result, a)[:1 + int(bit)]:  # square, then times a on a 1 bit
                result = where.take(stack[result, stack[factor, 0]])
                if (result < 0).any():
                    raise ValueError("not a group: a product sends dart 0 outside the images")
        return result

    orders = np.ones(m, dtype=np.int64)
    rest, p = m, 2
    while rest > 1:
        p = p if p * p <= rest else rest
        e = 0
        while rest % p == 0:
            rest, e = rest // p, e + 1
        if e:
            part = power(np.arange(m), m // p**e)
            for _ in range(e):
                orders[part != identity] *= p
                part = power(part, p)
            if (part != identity).any():
                raise ValueError(f"not a group: an element's order does not divide {m}")
        p += 1
    return orders


def classify_perm_group(g: PermGroup) -> GroupType:
    """Classify via order and element-order census, read off the images of dart 0.

    The input must be a group acting freely on dart 0, as a connected
    dessin's automorphism group is.  Rows sharing an image of dart 0 are
    neighbours and raise ValueError, as does a stack that is not a group.
    """
    if (g.stack[1:, 0] == g.stack[:-1, 0]).any():
        raise ValueError("two elements send dart 0 to the same dart; "
                         "orders cannot be read off dart 0")
    return classify_census(g.order, dict(Counter(_element_orders(g.stack).tolist())))
