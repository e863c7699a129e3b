"""Host-speed reference for normalizing the benchmark's timings.

On a shared host the same op can take up to twice as long from one minute
to the next, because other tenants load the cores, caches and memory; CPU
time tracks wall time, so the loss is in speed, not in scheduling.  A fixed
kernel that never touches criotq, timed next to each op, measures that
speed with the same mix of resources the ops use: an op's
wall time is multiplied by ``REFERENCE_S / kernel time`` to give its time
on a host where the kernel takes ``REFERENCE_S``.  Raw wall times are kept
in the results next to the normalized ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time on the quiet 2-core Xeon host the benchmark was tuned on.
REFERENCE_S = 0.004
_REPEATS = 3

# Scattered writes into an 8 MB array (the whole array ends up resident):
# memory traffic, as in the chain build's dense writes.  The kernel stays
# single-threaded: on a contended host a multi-threaded BLAS call can stall
# for ten times its usual time, far more than the ops do.
_BIG = np.zeros((1024, 1024))
_SCATTER = [((i * 7919) % 1024, (i * 104729) % 1024) for i in range(2000)]


def _kernel() -> float:
    # Interpreter work like the chain build's and the simulator's loops.
    acc = 0.0
    table = {}
    for i in range(20000):
        table[i & 255] = acc
        acc += (i % 7) * 0.5
    big = _BIG
    for r, c in _SCATTER:
        big[r, c] += 1.0
    return acc


def sample() -> float:
    """Median wall time of a few kernel runs, in seconds."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
