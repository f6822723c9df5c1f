"""Combinatorial dessins: bicolored maps encoded by a pair of permutations.

A dessin on ``n`` darts is a pair (sigma_white, sigma_black) of
permutations of the darts: the counterclockwise rotations around white
and black vertices respectively.  Faces are the cycles of
sigma_white∘sigma_black (black rotation applied first).  Everything in
this module is exact integer arithmetic.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import permutations as perms
from .errors import Disconnected, MalformedInput, NotAPermutation
from .grouptypes import GroupType, classify_census


@dataclass(frozen=True)
class Dessin:
    dart_count: int
    sigma_white: tuple[int, ...]
    sigma_black: tuple[int, ...]

    def __post_init__(self):
        n = self.dart_count
        if n < 1:
            raise MalformedInput("dart count must be positive")
        for p in (self.sigma_white, self.sigma_black):
            if len(p) != n or sorted(p) != list(range(n)):
                raise NotAPermutation("not a bijection of the darts")
        if not perms.is_transitive((self.sigma_white, self.sigma_black), n):
            raise Disconnected("the two rotations do not generate a transitive action")

    @property
    def face_permutation(self) -> tuple[int, ...]:
        return perms.compose(self.sigma_white, self.sigma_black)


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


def parse_dessin(text: str) -> Dessin:
    """Parse the JSON dessin format.

    Expected shape: ``{"darts": n, "sigma_white": [[...], ...],
    "sigma_black": [[...], ...]}`` with 1-based dart labels written in
    disjoint cycles; darts missing from every cycle are fixed.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedInput("invalid JSON: nested too deeply") from exc
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
    return Dessin(n, *(perms.from_cycles(data[key], n) for key in keys))


def genus(d: Dessin) -> int:
    """Genus from the Euler characteristic of the bicolored map."""
    chi = (len(perms.cycles(d.sigma_white))
           + len(perms.cycles(d.sigma_black))
           + len(perms.cycles(d.face_permutation))
           - d.dart_count)
    assert chi % 2 == 0 and chi <= 2, "impossible Euler characteristic"
    return (2 - chi) // 2


def passport(d: Dessin) -> Passport:
    """Vertex-degree and face-half-degree multisets (the ramification profile)."""
    return Passport(
        white_degrees=perms.cycle_lengths(d.sigma_white),
        black_degrees=perms.cycle_lengths(d.sigma_black),
        face_half_degrees=perms.cycle_lengths(d.face_permutation),
        degree=d.dart_count,
    )


def riemann_hurwitz_holds(d: Dessin) -> bool:
    """2 - 2g == 2*degree - sum(e - 1) over every passport entry."""
    p = passport(d)
    total = sum(e - 1 for part in (p.white_degrees, p.black_degrees, p.face_half_degrees)
                for e in part)
    return 2 - 2 * genus(d) == 2 * p.degree - total


def _cycle_index(p: tuple[int, ...]) -> list[int]:
    idx = [0] * len(p)
    for k, cyc in enumerate(perms.cycles(p)):
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
    wid = _cycle_index(d.sigma_white)
    bid = _cycle_index(d.sigma_black)
    fid = _cycle_index(d.face_permutation)
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


def _darts_like_dart_0(p: tuple[int, ...]) -> np.ndarray:
    """Mask of the darts whose cycle under ``p`` is as long as the cycle through dart 0."""
    cycles = perms.cycles(p)  # the first cycle is the one through dart 0
    mask = np.zeros(len(p), dtype=bool)
    mask[[d for c in cycles if len(c) == len(cycles[0]) for d in c]] = True
    return mask


def _move_rows(a: np.ndarray, to: list[int]) -> None:
    """Move row r of ``a`` to row ``to[r]``, in place, one cycle of ``to`` at a time."""
    moved = [False] * len(to)
    for start in range(len(to)):
        if moved[start]:
            continue
        r, carry = start, a[start].copy()
        while not moved[r]:  # carry holds the old row r
            moved[r] = True
            r = to[r]
            a[r], carry = carry, a[r].copy()


def automorphisms(d: Dessin) -> PermGroup:
    """All dart permutations commuting with both rotations.

    For a connected dessin this centralizer acts freely, so each
    automorphism is fixed by the image of dart 0 and the group order
    divides the dart count.  The candidate images of dart 0 are the darts
    whose white, black and face cycles are as long as those through dart
    0.  All candidates are propagated at once along a breadth-first walk
    of dart 0: an edge to a new dart is one gather giving a new row of
    images, an edge to a dart already reached is one comparison that
    drops candidates.  Dropped candidates are compacted away once they
    outnumber the kept ones, and the walk stops when only the identity
    is left, so the rows grow beyond the output stack only while false
    candidates are still dying.
    """
    n = d.dart_count
    sigmas = (d.sigma_white, d.sigma_black)
    rotations = tuple(np.array(s) for s in sigmas)
    candidates = np.flatnonzero(_darts_like_dart_0(d.sigma_white)
                                & _darts_like_dart_0(d.sigma_black)
                                & _darts_like_dart_0(d.face_permutation))
    images = np.array([candidates], dtype=np.int32)  # row r: images of walk[r]
    alive = np.ones(len(candidates), dtype=bool)
    rank = [-1] * n
    rank[0] = 0
    walk = [0]
    for dart in walk:  # the walk grows while it is read
        for rotation, sigma in zip(rotations, sigmas):
            image = rotation[images[rank[dart]]]
            e = sigma[dart]
            if rank[e] >= 0:
                alive &= image == images[rank[e]]
                live = np.count_nonzero(alive)
                if live == 1:  # only the identity
                    return PermGroup(np.arange(n)[None])
                if 2 * live < len(alive):
                    images = images[:len(walk)].compress(alive, axis=1)
                    alive = alive[alive]
                continue
            rank[e] = len(walk)
            walk.append(e)
            if len(images) < len(walk):
                images.resize((min(2 * len(images), n), images.shape[1]), refcheck=False)
            images[rank[e]] = image
    if not alive.all():
        images = images.compress(alive, axis=1)
    _move_rows(images, walk)
    return PermGroup(images.T)


def brute_force_automorphisms(d: Dessin) -> PermGroup:
    """Independent oracle: filter all n! permutations (small n only)."""
    import itertools

    n = d.dart_count
    els = []
    for cand in itertools.permutations(range(n)):
        if (perms.compose(cand, d.sigma_white) == perms.compose(d.sigma_white, cand)
                and perms.compose(cand, d.sigma_black) == perms.compose(d.sigma_black, cand)):
            els.append(cand)
    return PermGroup(els)


def _element_orders(stack: np.ndarray) -> np.ndarray:
    """Order of each element: the length of its cycle through dart 0.

    Valid when no two elements send dart 0 to the same dart: then g^k
    fixes dart 0 only when g^k is the identity.  One power walk of all
    elements; an element leaves the walk when dart 0 comes back.
    """
    orders = np.empty(len(stack), dtype=np.int64)
    todo = np.arange(len(stack))
    point = stack[:, 0]
    step = 1
    while len(todo):
        back = point == 0
        orders[todo[back]] = step
        todo = todo[~back]
        point = stack[todo, point[~back]]
        step += 1
    return orders


def classify_perm_group(g: PermGroup) -> GroupType:
    """Classify via order and element-order census, read off the images of dart 0.

    The group must act freely on dart 0, as a connected dessin's
    automorphism group does; rows are sorted by their image of dart 0, so
    two elements sharing one are neighbours, and a ValueError is raised.
    """
    if (g.stack[1:, 0] == g.stack[:-1, 0]).any():
        raise ValueError("two elements send dart 0 to the same dart; "
                         "orders cannot be read off dart 0")
    return classify_census(g.order, dict(Counter(_element_orders(g.stack).tolist())))
