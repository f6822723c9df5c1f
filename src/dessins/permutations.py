"""Walks along permutations of {0, .., n-1}, given as sequences of images.

``p[i]`` is the image of ``i``.  These are the two walks a ``Dessin`` is
built with, the cycle decomposition and the transitivity test; it keeps
its rotations as int32 arrays and does the rest of its arithmetic on them.
"""

from __future__ import annotations


def cycles(p) -> list[tuple[int, ...]]:
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


def is_transitive(perms, n: int) -> bool:
    """Does the group generated by ``perms`` act transitively on {0..n-1}?"""
    if n == 0:
        return False
    seen = [False] * n
    seen[0] = True
    walk = [0]
    for d in walk:  # the walk grows while it is read
        for p in perms:
            e = p[d]
            if not seen[e]:
                seen[e] = True
                walk.append(e)
    return len(walk) == n
