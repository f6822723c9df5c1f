"""Plain tuple-based permutations of {0, .., n-1}.

A permutation is a tuple ``p`` with ``p[i]`` the image of ``i``.  All
arithmetic here is exact integer work; no external dependency needed.
"""

from __future__ import annotations

import math

from .errors import NotAPermutation


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composition p∘q: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def from_cycles(cycles, n: int) -> tuple[int, ...]:
    """Expand 1-based disjoint cycles to a full permutation of {0..n-1}.

    Darts omitted from every cycle are fixed points.  Raises
    NotAPermutation on out-of-range labels or repeats.
    """
    out = list(range(n))
    seen: set[int] = set()
    for cycle in cycles:
        for label in cycle:
            if not isinstance(label, int) or isinstance(label, bool):
                raise NotAPermutation(f"dart label {label!r} is not an integer")
            if label < 1 or label > n:
                raise NotAPermutation(f"dart label {label} outside 1..{n}")
            if label in seen:
                raise NotAPermutation(f"dart {label} appears twice")
            seen.add(label)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[a - 1] = b - 1
    return tuple(out)


def cycles(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points included, each cycle led by its minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def order(p: tuple[int, ...]) -> int:
    return math.lcm(*(len(c) for c in cycles(p))) if p else 1


def is_transitive(perms, n: int) -> bool:
    """Does the group generated by ``perms`` act transitively on {0..n-1}?"""
    if n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for p in perms:
            e = p[d]
            if e not in seen:
                seen.add(e)
                stack.append(e)
    return len(seen) == n
