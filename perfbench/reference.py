"""A fixed reference kernel that gauges how fast the machine runs at the moment.

Other tenants of a shared host slow everything a process does, by up to
40% for a minute or more at a time.  The ops and this kernel slow down
together, so the kernel is timed before the first op of a pass and right
after every op, and each op time is scaled by ``NOMINAL_S`` over the mean
of the two kernel times around it.  A run in a slow stretch then reports
roughly what it would have measured at nominal speed (on a 2-vCPU VM this
halved the run-to-run spread of the timing metrics).  The kernel touches
nothing of the package, so a change to the program leaves it as it is and
moves the scaled metrics by its own effect.

It mixes the kinds of work the package does: list and dict work on
integers (permutations), scalar complex arithmetic (Moebius maps,
quadrature) and small dense numpy (metric kernels).
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's settled time on the machine the benchmark was tuned on
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4) in a quiet stretch.
NOMINAL_S = 1.5e-3

_N = 400
_A = np.linspace(-1.0, 1.0, 256).reshape(16, 16) / 8.0


def kernel():
    perm = list(range(_N))
    acc = 0
    for step in (7, 11, 13, 17, 19, 23, 29, 31):
        perm = [perm[(step * i + 3) % _N] for i in range(_N)]
        index = {x: i for i, x in enumerate(perm)}
        acc += sum(index[x] for x in perm[::5])
    z = 0.3 + 0.1j
    for _ in range(3000):
        z = (z * z + 0.25j) / (1.0 + abs(z))
    a = _A
    for _ in range(90):
        a = np.tanh(a @ _A) + 1e-3 * np.sqrt(np.abs(a)).sum()
    return acc, z, a


def timed() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
