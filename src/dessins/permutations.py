"""Walks along permutations of {0, .., n-1}, given as sequences of images.

``p[i]`` is the image of ``i``.  These are the two walks a ``Dessin`` is
built with, the cycle decomposition and the breadth-first walk of dart 0;
it keeps its rotations and that walk as int32 arrays and does the rest of
its arithmetic on them.
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


def walk(perms, n: int) -> list[int]:
    """The darts reached from dart 0 in breadth-first order, each dart's images in the order
    of ``perms``: all ``n`` darts exactly when the action is transitive."""
    seen = [False] * n
    seen[0] = True
    order = [0]
    for d in order:  # the walk grows while it is read
        for p in perms:
            e = p[d]
            if not seen[e]:
                seen[e] = True
                order.append(e)
    return order
