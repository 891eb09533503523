"""Rescale host wall times to a reference host speed.

The benchmark shares its machine with other tenants.  Their load moves
the host between a few speed states for seconds to minutes at a time, and
the slowest runs the same cell ~2x slower than the fastest: raw wall
times of one cell spread by ~20% between runs.  :class:`HostSpeed`
measures how fast the host runs *while* a timed region runs.  ``SIGALRM``
fires every :data:`INTERVAL_S` and the handler times two fixed loops: an
integer loop that only needs the core, and a walk over a graph of small
objects that also needs the caches.  The simulator sits between the two
(a slow state costs it more than the first loop and less than the
second), so the region's *slowdown* is the geometric mean of the two
loops' median times, each over its time on an idle reference host.  A
wall time divided by the slowdown is in reference seconds.  On the
reference host this cut the run-to-run spread of a cell's rate from
~20% to ~5% in the noisiest hour measured.

The loops touch no simulator state and take ~1.5% of the region, so the
simulated outputs and the simulator's share of the wall time are
unchanged.  No thread or process is started.
"""

from __future__ import annotations

import contextlib
import math
import random
import signal
import statistics
import time

#: seconds between two probes while a region runs
INTERVAL_S = 0.01
#: iterations of the integer loop, and its median time on the reference
#: host (Intel Xeon, 2 vCPUs, CPython 3.11) with nothing else running
INT_STEPS = 1000
INT_REF_S = 110e-6
#: nodes of the object graph, steps of the walk, and its reference time
GRAPH_NODES = 4096
GRAPH_STEPS = 400
GRAPH_REF_S = 35e-6


class _Node:
    __slots__ = ("n", "next", "d")

    def __init__(self):
        self.n = 0
        self.next = None
        self.d = {}


def _int_loop() -> float:
    perf = time.perf_counter
    x = 1
    t0 = perf()
    for _ in range(INT_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return perf() - t0


class HostSpeed:
    """Probes the host before, during and after a timed region."""

    def __init__(self):
        rng = random.Random(1)
        nodes = [_Node() for _ in range(GRAPH_NODES)]
        for node in nodes:
            node.next = nodes[rng.randrange(GRAPH_NODES)]
        self._cursor = nodes[0]
        self.int_s: list = []
        self.graph_s: list = []

    def _graph_walk(self) -> float:
        perf = time.perf_counter
        node = self._cursor
        t0 = perf()
        for i in range(GRAPH_STEPS):
            node.n += 1
            node.d[i & 7] = node
            node = node.next
        dt = perf() - t0
        self._cursor = node
        return dt

    def _probe(self, signum=None, frame=None) -> None:
        self.int_s.append(_int_loop())
        self.graph_s.append(self._graph_walk())

    @contextlib.contextmanager
    def sampling(self):
        """Probe around and, every INTERVAL_S, inside the ``with`` body."""
        self.int_s, self.graph_s = [], []
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()

    def slowdown(self) -> float:
        """How much slower than the reference host the last region ran."""
        return math.sqrt(
            statistics.median(self.int_s) / INT_REF_S
            * statistics.median(self.graph_s) / GRAPH_REF_S
        )
