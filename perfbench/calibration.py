"""A speedometer: samples how fast the host runs while an operation is timed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a factor of two, in phases of seconds to a minute (clock boost, neighbours
on the same cores and caches).  A wall-clock throughput taken across such
phases spreads further between runs than any bound worth enforcing, and a
reference loop timed only between operations misses the phases that start
or end inside a multi-second operation.

So while an operation runs, a ``SIGALRM`` interval timer interrupts it every
``INTERVAL_S`` seconds and times one *tick*: a fixed loop of about a
millisecond, of the two kinds of work the workloads do.  One is a Python
breadth-first search over adjacency lists that keeps hop counts in a numpy
array (``k_hop_subgraph``, ``shortest_paths``); the other is a chain of small
numpy operations (the autodiff tape).  The mean tick time tracks the
host's speed over the whole operation.  The benchmark reports times in
*reference seconds*: wall seconds, less the time spent in ticks, scaled by
``REFERENCE_TICK_S`` / mean tick time.  On a host whose tick takes
``REFERENCE_TICK_S`` they are wall seconds; when the host speeds up or slows
down, the tick and the operation move together and the reference time stays
put.  The tick touches only the standard library and numpy, never
``jointspace``, so no change to the library can move it.
"""

from __future__ import annotations

import signal
import time
from collections import deque

import numpy as np

INTERVAL_S = 0.05  # one tick per 50 ms of operation: about 1.5% of its time
# A tick's time on a 2-vCPU KVM guest (Xeon, model 143) in a typical phase.
# It only sets the scale: reference seconds on that host read as wall seconds.
REFERENCE_TICK_S = 0.0007
SIDE = 20          # the search runs on a SIDE x SIDE grid graph
SMALL_OPS = 20


def _grid(side: int) -> list[list[tuple[int, float]]]:
    """Adjacency lists of (neighbour, weight), the layout ``WeightedGraph`` uses."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(side * side)]
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                adj[i].append((i + 1, 1.0))
                adj[i + 1].append((i, 1.0))
            if r + 1 < side:
                adj[i].append((i + side, 1.0))
                adj[i + side].append((i, 1.0))
    return adj


_ADJ = _grid(SIDE)
_ROWS = np.random.default_rng(0).normal(size=(32, 16))


def tick() -> int:
    """One pass of the reference work; returns a checksum so nothing is skipped."""
    hops = np.full(len(_ADJ), -1, dtype=np.int64)
    hops[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v, _ in _ADJ[u]:
            if hops[v] < 0:
                hops[v] = hops[u] + 1
                queue.append(v)
    x = _ROWS
    for _ in range(SMALL_OPS):
        x = np.tanh(x * 0.5 + 0.1)
    return int(hops.max()) + int(x[0, 0] > 0)


class Speedometer:
    """Context manager that times a tick every ``INTERVAL_S`` seconds of its block.

    ``ticks`` holds the tick durations of the last block.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self._previous = None

    def reference_seconds(self, wall_s: float) -> float:
        """Reference seconds of the last block, given its wall time ``wall_s``.

        A block too short for the timer to fire is scaled by one tick timed
        right after it.
        """
        spent = sum(self.ticks)
        if not self.ticks:
            self._on_alarm(None, None)
        mean_tick = sum(self.ticks) / len(self.ticks)
        return (wall_s - spent) * REFERENCE_TICK_S / mean_tick

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        tick()
        self.ticks.append(time.perf_counter() - t0)

    def __enter__(self) -> "Speedometer":
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
