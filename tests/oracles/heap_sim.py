"""Binary-heap event queue: the oracle the calendar queue is pinned to.

:class:`HeapSimulator` keeps every entry in one ``heapq`` of
``(time, seq, fn, args)`` — the textbook discrete-event queue.  It
overrides only the queue primitives (``push``, ``_compact``,
``_next_time``, ``queue_length``) and ``run``; scheduling front doors,
cancellable timers and their compaction trigger are inherited from
:class:`~repro.sim.Simulator` unchanged, so any dispatch difference
between the two is a calendar-queue bug.

Build a fabric on it with ``config.build(sim=HeapSimulator())``.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Optional

from repro.sim.engine import Simulator, StopSimulation

__all__ = ["HeapSimulator"]


class HeapSimulator(Simulator):
    """:class:`~repro.sim.Simulator` over a plain binary heap.

    One run loop covers ``until``, :attr:`event_hook`, cancelled entries
    and compaction from inside a handler.  There is no watchdog: the
    guards are a production concern, pinned by their own tests.
    """

    __slots__ = ("_queue",)

    def __init__(self):
        super().__init__()
        #: heapq of (time, seq, fn, args); mutated strictly in place,
        #: because run() holds a direct reference
        self._queue: list = []

    def push(self, t: float, fn: Callable, args: tuple = ()) -> None:
        seq = self._seq = self._seq + 1
        heapq.heappush(self._queue, (t, seq, fn, args))

    def _compact(self) -> None:
        self._queue[:] = [
            e for e in self._queue if e[2] is not None or e[3].fn is not None
        ]
        heapq.heapify(self._queue)
        self._dead = 0

    def _next_time(self) -> Optional[float]:
        q = self._queue
        return q[0][0] if q else None

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def run(self, until: Optional[float] = None) -> None:
        if self._watchdog is not None:
            raise NotImplementedError("HeapSimulator has no watchdog")
        self._stopped = False
        wall_start = time.perf_counter()
        events_before = self._events_processed
        queue = self._queue
        pop = heapq.heappop
        hook = self.event_hook
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                t, _seq, fn, args = pop(queue)
                if fn is None:  # cancellable entry: args is the handle
                    handle = args
                    fn = handle.fn
                    if fn is None:  # cancelled — skip, uncounted
                        self._dead -= 1
                        continue
                    args = handle.args
                    handle.fn = None
                    handle.args = ()
                self.now = t
                self._events_processed += 1
                if hook is not None:
                    hook(t, fn, args)
                fn(*args)
        except StopSimulation:
            self._stopped = True
        self.last_run_wall_s = time.perf_counter() - wall_start
        self.last_run_events = self._events_processed - events_before
        if until is not None and not self._stopped and self.now < until:
            self.now = until
