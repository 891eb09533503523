"""Discrete-event simulation core.

The simulator dispatches ``(time, seq, handler, args)`` entries in strict
``(time, seq)`` order.  ``seq`` is a monotonically increasing sequence
number that makes event ordering fully deterministic: two events scheduled
for the same simulated time always fire in the order they were scheduled,
regardless of Python hash randomization or container internals.
Determinism is a hard requirement here — the property-based tests compare
runs event-for-event.

The queue is a ladder queue with one rung (Tang, Goh & Thng, ACM TOMACS
15(3), 2005).  A sorted *near* list holds every entry below a moving time
``horizon``.  Above it, a *rung* of equal-width time buckets holds the
entries up to ``rung_end``, and everything later lands unsorted in a
*far* overflow list.  An enqueue below the horizon is a ``bisect.insort``
into the near list; one into the rung appends to bucket
``int((t - t0) * inv)``; a later one appends to the far list.  Dequeue is
an O(1) ``list.pop()``.  When the near list drains, a *refill* sorts the
next non-empty bucket into it.  When the rung is used up too, the refill
spreads the far list over ``len(far) // _REFILL_TARGET`` buckets in one
pass (a far list too small or too narrow to spread is taken whole), so
every entry is scanned a fixed number of times however often the queue
refills.  Measured on the bisection streams, the push cost is flat in
the fabric size (0.7-1.0 us per traced call on 80 and on 1,024 nodes,
CPython 3.11 on a 2-vCPU Xeon); what grew was the old refill, which
carved one slice off the far list per refill and rescanned the whole
list four times to do it (100 refills over a mean 5,171 far entries
per 1,024-node SHANDY cell).  Bucket edges are
exact: the horizon is always the smallest float whose bucket index
reaches the next untaken bucket, so ``t < horizon`` files an entry below
that bucket precisely when its index says so.  Entries are stored
key-negated as ``(-time, -seq, fn, args)`` so the minimum ``(time, seq)``
sits at the *end* of the ascending near list; float negation is
bit-exact, so dispatch order is identical to a binary heap over
``(time, seq)`` — the heap oracle in ``tests/oracles/heap_sim.py`` pins
that event for event, every tie included.

Cancellable timers use *lazy deletion*: :meth:`Simulator.schedule_cancellable`
returns a :class:`TimerHandle` whose O(1) :meth:`~TimerHandle.cancel` blanks
the handler; the run loop discards blanked entries without dispatching them
(they do not count as processed events).  When dead entries ever make up
more than half the queue it is compacted in one O(n) pass (in place — the
run loops hold direct references to the queue lists), so the queue stays
proportional to the number of *live* timers no matter how often producers
re-arm.

Time is measured in **nanoseconds** (floats), sizes in **bytes**, and
bandwidths in **bytes per nanosecond** (so 200 Gb/s == 25 B/ns).  These
units are used consistently across the whole package; see
``repro.network.units`` for named constants and converters.

Producer contract (v2, stable): hot producers enqueue through

    sim.push(t, fn, args)

with an absolute time ``t >= sim.now`` and a pre-built args *tuple*.
``push`` assigns the tie-break sequence number and files the entry into
the near list, a rung bucket or the far list — it is bit- and
order-identical to :meth:`Simulator.schedule` minus the delay guard and
the ``*args`` packing frame.  No code outside this module may touch ``_seq``
or the queue containers (grep for ``sim._seq`` / ``sim._near`` must come
up empty outside ``repro.sim``).

Two run loops exist: the hot loop (no hook, no watchdog) and one
instrumented loop that honours both :attr:`Simulator.event_hook` and the
watchdog guards.  Every raising exit from :meth:`Simulator.run` (a stall,
a handler exception) drains the registered free-lists, so pooled objects
never leak across runs in a reused worker process.
"""

from __future__ import annotations

import contextlib
import time
from bisect import insort
from math import inf, nextafter
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "StopSimulation",
    "TimerHandle",
    "SimStall",
    "set_default_watchdog",
    "default_watchdog",
]

#: Absolute-time deltas smaller than this are float drift, not user error:
#: repeated ``now + rto`` style arithmetic can land an attoseconds-stale
#: deadline.  ``schedule_at`` clamps these to "now" instead of raising.
_NEGATIVE_DRIFT_NS = 1e-6

#: Entries per rung bucket when the far list is spread: a spread of n
#: entries makes ``n // _REFILL_TARGET`` buckets, and a far list shorter
#: than two buckets' worth is taken whole.  Big enough that per-refill
#: bookkeeping amortizes to noise, small enough to bound the memmove
#: behind each near-list insort.  Replaying recorded push/pop traces of
#: the four benchmark workloads, 16-96 ran within noise of each other
#: and 128-256 ran slower.
_REFILL_TARGET = 64

#: Guarded run loop: events dispatched between wall-clock deadline checks.
#: A tripped deadline is detected at most this many events late; the
#: regression test pins that bound.
_WALL_STRIDE = 256


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""


class SimStall(RuntimeError):
    """A watchdog limit tripped: the simulation is wedged (or runaway).

    Carries enough context to *classify* the stall without a debugger:
    which guard fired, the simulated clock and event count at the trip,
    queue depths, the timestamp of the next pending event, and — when the
    owning fabric registered :attr:`Simulator.stall_diagnostics` — a
    structured quiescence snapshot (stuck packets, deepest VOQ, pending
    retransmissions).  The campaign harness (:mod:`repro.resilient`)
    ships this across the worker pipe so a wedged cell is killed,
    classified, and retried or quarantined instead of hanging the pool.
    """

    def __init__(
        self,
        reason: str,
        *,
        now: float = 0.0,
        events_processed: int = 0,
        queue_length: int = 0,
        live_queue_length: int = 0,
        next_event_ns: Optional[float] = None,
        diagnostics: Optional[Dict[str, Any]] = None,
    ):
        self.reason = reason
        self.now = now
        self.events_processed = events_processed
        self.queue_length = queue_length
        self.live_queue_length = live_queue_length
        self.next_event_ns = next_event_ns
        self.diagnostics = diagnostics
        super().__init__(self._describe())

    def _describe(self) -> str:
        msg = (
            f"simulation stalled ({self.reason}): now={self.now:.0f}ns, "
            f"{self.events_processed} events processed, "
            f"{self.live_queue_length} live / {self.queue_length} queued entries"
        )
        if self.next_event_ns is not None:
            msg += f", next event at {self.next_event_ns:.0f}ns"
        if self.diagnostics:
            stuck = self.diagnostics.get("stuck") or []
            if stuck:
                msg += f"; {len(stuck)} stuck location(s)"
            deepest = self.diagnostics.get("deepest_voq")
            if deepest:
                msg += (
                    f"; deepest VOQ {deepest.get('port')} "
                    f"({deepest.get('queued_pkts')} pkts)"
                )
        return msg

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view (journal records, cross-process failure reports)."""
        return {
            "reason": self.reason,
            "now": self.now,
            "events_processed": self.events_processed,
            "queue_length": self.queue_length,
            "live_queue_length": self.live_queue_length,
            "next_event_ns": self.next_event_ns,
            "diagnostics": self.diagnostics,
        }


#: process-wide watchdog applied to every *new* Simulator (see
#: :func:`set_default_watchdog`).  None = no guards, default hot loop.
_DEFAULT_WATCHDOG: Optional[tuple] = None


def _watchdog_tuple(
    max_events: Optional[int],
    max_sim_time_ns: Optional[float],
    wall_deadline_s: Optional[float],
) -> Optional[tuple]:
    for name, v in (
        ("max_events", max_events),
        ("max_sim_time_ns", max_sim_time_ns),
        ("wall_deadline_s", wall_deadline_s),
    ):
        if v is not None and not v > 0:  # NaN fails this too
            raise ValueError(f"watchdog {name} must be positive, got {v}")
    if max_events is None and max_sim_time_ns is None and wall_deadline_s is None:
        return None
    return (max_events, max_sim_time_ns, wall_deadline_s)


def set_default_watchdog(
    max_events: Optional[int] = None,
    max_sim_time_ns: Optional[float] = None,
    wall_deadline_s: Optional[float] = None,
) -> None:
    """Arm (or, with no arguments, disarm) a process-wide default watchdog.

    Every :class:`Simulator` constructed *after* this call starts with the
    given guards, exactly as if :meth:`Simulator.watchdog` had been called
    on it.  This is how the campaign harness arms in-sim watchdogs inside
    worker functions it cannot modify: the supervisor sets the default in
    the child process before invoking the cell worker, and every fabric
    the cell builds inherits the guards.  Existing simulators are
    untouched; passing no limits restores the unguarded default.
    """
    global _DEFAULT_WATCHDOG
    _DEFAULT_WATCHDOG = _watchdog_tuple(
        max_events, max_sim_time_ns, wall_deadline_s
    )


@contextlib.contextmanager
def default_watchdog(
    max_events: Optional[int] = None,
    max_sim_time_ns: Optional[float] = None,
    wall_deadline_s: Optional[float] = None,
):
    """Context manager form of :func:`set_default_watchdog` (restores the
    previous default on exit, even on error)."""
    global _DEFAULT_WATCHDOG
    prev = _DEFAULT_WATCHDOG
    _DEFAULT_WATCHDOG = _watchdog_tuple(
        max_events, max_sim_time_ns, wall_deadline_s
    )
    try:
        yield
    finally:
        _DEFAULT_WATCHDOG = prev


class TimerHandle:
    """A scheduled callback that can be cancelled in O(1).

    Returned by :meth:`Simulator.schedule_cancellable` /
    :meth:`Simulator.schedule_at_cancellable`.  ``cancel()`` blanks the
    handler; the queue entry stays behind (lazy deletion) and is skipped —
    without being dispatched or counted — when it reaches the front.
    The run loop blanks the handle at dispatch, so cancelling after the
    timer fired, or twice, is a safe no-op (and ``cancelled`` reads True
    once the timer can no longer fire, for either reason).
    """

    __slots__ = ("fn", "args", "sim")

    def __init__(self, sim: "Simulator", fn: Callable, args: tuple):
        self.sim = sim
        self.fn: Optional[Callable] = fn
        self.args = args

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def cancel(self) -> None:
        if self.fn is None:
            return
        self.fn = None
        self.args = ()
        sim = self.sim
        sim._dead += 1
        # Amortized queue hygiene: rebuild once dead entries dominate.
        if sim._dead > 64 and sim._dead * 2 > sim.queue_length:
            sim._compact()


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event starts *pending*; :meth:`succeed` (or :meth:`fail`) triggers
    it exactly once, delivering a value (or an exception) to every
    registered callback.  Triggering is processed through the simulator's
    event queue so that all state observed by callbacks is the state at
    the trigger time.
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_value", "_exc")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim.schedule(0.0, self._dispatch)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._exc = exc
        self.sim.schedule(0.0, self._dispatch)
        return self

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register *cb*; fires immediately (via the queue) if triggered."""
        if self._triggered:
            self.sim.schedule(0.0, cb, self)
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        super().__init__(sim)
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        # Like succeed(), but dispatches inline: the engine already charged
        # the delay, so a second zero-delay hop would only add overhead.
        self._triggered = True
        self._value = value
        self._dispatch()


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(5.0, hits.append, "a")
    >>> sim.schedule(2.0, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    """

    # Slotted: sim.now and the queue containers are the most-read
    # attributes in the whole simulator (every event touches them), so
    # they bypass the instance dict.
    __slots__ = (
        "now",
        "_near",
        "_far",
        "_horizon",
        "_rung",
        "_rung_next",
        "_rung_n",
        "_rung_end",
        "_rung_t0",
        "_rung_inv",
        "_seq",
        "_events_processed",
        "_stopped",
        "_dead",
        "last_run_events",
        "last_run_wall_s",
        "event_hook",
        "_watchdog",
        "stall_diagnostics",
        "_drain_hooks",
    )

    def __init__(self):
        self.now: float = 0.0
        #: ascending-sorted list of negated-key entries (-time, -seq, fn,
        #: args); the minimum (time, seq) event is at the END and pop() is
        #: O(1).  Mutated strictly in place — run loops hold direct
        #: references.
        self._near: list = []
        #: unsorted overflow for entries at or past _rung_end; spread
        #: into a new rung (or taken whole) by _refill()
        self._far: list = []
        #: entries strictly below this time belong in _near: the lower
        #: edge of the next untaken rung bucket (== _rung_end once the
        #: rung is used up).  Monotonically non-decreasing.
        self._horizon: float = 0.0
        #: rung of unsorted time buckets; bucket i holds the entries whose
        #: index int((t - _rung_t0) * _rung_inv) is i.  Buckets below
        #: _rung_next have been taken (None or empty); the rest are lists.
        self._rung: list = []
        self._rung_next: int = 0
        #: entries held in the rung (for queue_length)
        self._rung_n: int = 0
        #: entries at or past this time belong in _far
        self._rung_end: float = 0.0
        self._rung_t0: float = 0.0
        self._rung_inv: float = 0.0
        self._seq: int = 0
        self._events_processed: int = 0
        self._stopped = False
        #: cancelled-but-unpopped queue entries (lazy deletion bookkeeping)
        self._dead: int = 0
        # event-loop diagnostics for the telemetry scraper: how the last
        # run() call performed in *wall-clock* terms (pure observation;
        # never feeds back into simulated behaviour)
        self.last_run_events: int = 0
        self.last_run_wall_s: float = 0.0
        #: per-event observer ``hook(t, fn, args)`` (repro.validate's
        #: determinism differ); None (with no watchdog) routes run() to
        #: the hot loop, so a hookless run pays nothing per event
        self.event_hook: Optional[Callable] = None
        #: watchdog guards (max_events, max_sim_time_ns, wall_deadline_s);
        #: None (with no hook) routes run() to the hot loop.  New
        #: simulators inherit the process-wide default
        #: (set_default_watchdog).
        self._watchdog: Optional[tuple] = _DEFAULT_WATCHDOG
        #: zero-argument callable returning a plain-data quiescence
        #: snapshot, attached to any SimStall this simulator raises.  The
        #: fabric registers its quiescence_snapshot here at build time.
        self.stall_diagnostics: Optional[Callable[[], Dict[str, Any]]] = None
        #: free-list drain callables (register_free_list); invoked when a
        #: run() escapes with an exception so pooled objects never leak
        #: across runs in a reused worker process.
        self._drain_hooks: List[Callable[[], Any]] = []

    def register_free_list(self, drain: Callable[[], Any]) -> None:
        """Register a zero-arg callable that empties an object pool.

        Drains run when :meth:`run` exits with an exception (stall,
        handler error) so recycled objects are never carried into a later
        run of a reused process, and on :meth:`drain_free_lists`.
        Registering the same callable twice is a no-op.
        """
        if drain not in self._drain_hooks:
            self._drain_hooks.append(drain)

    def drain_free_lists(self) -> None:
        """Invoke every registered free-list drain (errors suppressed)."""
        for drain in self._drain_hooks:
            try:
                drain()
            except Exception:
                pass

    # -- scheduling -------------------------------------------------------

    def push(self, t: float, fn: Callable, args: tuple = ()) -> None:
        """Enqueue ``fn(*args)`` at absolute time *t* — the producer API.

        The stable hot-path contract (v2): *t* must already be validated
        (``t >= now`` up to float drift) and *args* must be a tuple.  No
        guards run here; :meth:`schedule` / :meth:`schedule_at` are the
        checked front doors.  Exactly one sequence number is consumed per
        call, in call order.
        """
        seq = self._seq = self._seq + 1
        if t < self._horizon:
            insort(self._near, (-t, -seq, fn, args))
        elif t < self._rung_end:
            self._rung[int((t - self._rung_t0) * self._rung_inv)].append(
                (-t, -seq, fn, args)
            )
            self._rung_n += 1
        else:
            self._far.append((-t, -seq, fn, args))

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* ns of simulated time."""
        if not delay >= 0:  # NaN fails this too, unlike `delay < 0`
            raise ValueError(
                f"cannot schedule at delay={delay} (must be >= 0)"
            )
        self.push(self.now + delay, fn, args)

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time *when*.

        Sub-nanosecond *negative* deltas are float drift from repeated
        ``now + delta`` arithmetic (e.g. retransmission deadlines) and are
        clamped to "now"; genuinely past times (and NaN) still raise.
        """
        delay = when - self.now
        if not delay >= 0.0:
            if not delay >= -_NEGATIVE_DRIFT_NS:
                raise ValueError(
                    f"cannot schedule at delay={delay} (must be >= 0)"
                )
            delay = 0.0
        self.push(self.now + delay, fn, args)

    def schedule_cancellable(
        self, delay: float, fn: Callable, *args: Any
    ) -> TimerHandle:
        """Like :meth:`schedule`, returning a cancellable :class:`TimerHandle`."""
        if not delay >= 0:
            raise ValueError(
                f"cannot schedule at delay={delay} (must be >= 0)"
            )
        handle = TimerHandle(self, fn, args)
        # entry layout: fn=None marks a cancellable entry, args IS the handle
        self.push(self.now + delay, None, handle)
        return handle

    def schedule_at_cancellable(
        self, when: float, fn: Callable, *args: Any
    ) -> TimerHandle:
        """Cancellable :meth:`schedule_at` (same drift clamping)."""
        delay = when - self.now
        if not delay >= 0.0:
            if not delay >= -_NEGATIVE_DRIFT_NS:
                raise ValueError(
                    f"cannot schedule at delay={delay} (must be >= 0)"
                )
            delay = 0.0
        handle = TimerHandle(self, fn, args)
        self.push(self.now + delay, None, handle)
        return handle

    def _compact(self) -> None:
        """Drop cancelled entries in place (keys unchanged, so live event
        ordering is preserved exactly).

        In place matters: the run loops bind the queue containers to
        locals, so rebuilding into a *new* list would strand events pushed
        after a mid-run compaction (a cancel inside a dispatched handler
        can get here while run() is on the stack).
        """
        # Filtering preserves ascending order in _near; rung buckets and
        # _far are unsorted anyway.  No edge or horizon moves.
        for q in (self._near, self._far, *self._rung[self._rung_next:]):
            q[:] = [e for e in q if e[2] is not None or e[3].fn is not None]
        self._rung_n = sum(map(len, self._rung[self._rung_next:]))
        self._dead = 0

    def _edge(self, i: int) -> float:
        """Lower edge of rung bucket *i*: the smallest float whose bucket
        index ``int((t - t0) * inv)`` reaches *i*.

        ``t0 + i / inv`` is within a few ulps of it; the index is monotone
        in ``t``, so stepping one ulp at a time from there finds it.
        """
        t0 = self._rung_t0
        inv = self._rung_inv
        t = t0 + i / inv
        while int((t - t0) * inv) >= i:
            t = nextafter(t, -inf)
        while int((t - t0) * inv) < i:
            t = nextafter(t, inf)
        return t

    def _refill(self) -> bool:
        """Move the earliest pending entries into ``_near``, sorted.

        Called only with ``_near`` empty; returns False when nothing is
        pending.  On True, ``_near`` is non-empty, ascending-sorted, and
        every entry left in the rung or ``_far`` is strictly after (in
        ``(time, seq)`` order) every entry moved to ``_near`` — the
        cross-list invariant the run loops rely on.

        The next non-empty rung bucket is taken first.  Once the rung is
        used up, ``_far`` is spread over a new rung of
        ``len(_far) // _REFILL_TARGET`` equal-width buckets (its ``max``
        and ``min``, then one distribution pass) whose first bucket is
        taken.  A far list shorter than two buckets, or too narrow for
        a positive finite bucket scale, is taken whole.
        """
        near = self._near
        if self._rung_n:
            rung = self._rung
            for i in range(self._rung_next, len(rung)):
                bucket = rung[i]
                if bucket:
                    rung[i] = None
                    self._rung_next = i + 1
                    self._rung_n -= len(bucket)
                    bucket.sort()
                    near.extend(bucket)
                    self._horizon = self._edge(i + 1)
                    return True
        far = self._far
        n = len(far)
        if n >= 2 * _REFILL_TARGET:
            # Entries are key-negated: max(far) is the earliest (time,
            # seq), min(far) the latest.
            nt0 = max(far)[0]
            span = nt0 - min(far)[0]
            nb = n // _REFILL_TARGET
            inv = nb / span if span > 0.0 else 0.0
            if 0.0 < inv < inf:
                # nb + 1 buckets: the latest entry's index rounds to nb
                # or nb - 1.  nt0 - e[0] is t - t0, rounded identically.
                rung = self._rung = [[] for _ in range(nb + 1)]
                for e in far:
                    rung[int((nt0 - e[0]) * inv)].append(e)
                far.clear()
                self._rung_t0 = -nt0
                self._rung_inv = inv
                self._rung_next = 0
                self._rung_n = n
                self._rung_end = self._edge(nb + 1)
                return self._refill()
        if not n:
            return False
        near.extend(far)
        far.clear()
        near.sort()
        # No push reaches the (empty) rung once its end is the horizon.
        self._horizon = self._rung_end = -near[0][0]  # max time taken
        return True

    def _next_time(self) -> Optional[float]:
        """Timestamp of the next live-or-dead entry (None if drained).

        May trigger a refill; never dispatches.
        """
        near = self._near
        if not near and not self._refill():
            return None
        return -near[-1][0]

    def watchdog(
        self,
        max_events: Optional[int] = None,
        max_sim_time_ns: Optional[float] = None,
        wall_deadline_s: Optional[float] = None,
    ) -> None:
        """Arm in-sim stall guards (pass no limits to disarm).

        * ``max_events`` — budget of *additional* events each subsequent
          :meth:`run` may dispatch before raising :class:`SimStall`;
        * ``max_sim_time_ns`` — ceiling on the simulated clock: the first
          event scheduled past it trips the guard (unlike ``run(until=)``,
          which silently stops — a watchdog trip is an *error*);
        * ``wall_deadline_s`` — wall-clock budget per :meth:`run` call,
          checked every ``_WALL_STRIDE`` events (a trip is detected at
          most one stride late, never per-event syscall cost).

        The guarded run loop is a separate code path: an unguarded,
        unhooked simulator keeps the default hot loop untouched (two
        ``is None`` checks per run() call, nothing per event).
        """
        self._watchdog = _watchdog_tuple(
            max_events, max_sim_time_ns, wall_deadline_s
        )

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        return Timeout(self, delay, value)

    # -- processes (imported lazily to avoid a cycle) ----------------------

    def process(self, generator) -> "Any":
        from .process import Process

        return Process(self, generator)

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or *until* is reached.

        When *until* is given, ``now`` is advanced to exactly *until* even
        if the queue drains earlier, matching SimPy semantics.

        With neither an :attr:`event_hook` nor a watchdog this runs the
        hot loop; otherwise the guarded loop, which honours both.  A
        raising exit (a :class:`SimStall`, a handler exception) drains
        the registered free-lists before the exception propagates.
        """
        try:
            if self._watchdog is None and self.event_hook is None:
                self._run_hot(until)
            else:
                self._run_guarded(until)
        except BaseException:
            self.drain_free_lists()
            raise

    def _run_hot(self, until: Optional[float]) -> None:
        """Default hot loop (no hook, no watchdog)."""
        self._stopped = False
        wall_start = time.perf_counter()
        events_before = self._events_processed
        # Hot loop: the near list and its pop as locals (_refill extends
        # it strictly in place, so the bindings stay valid), the `until`
        # test hoisted into a dedicated loop, and a dispatch-free fast
        # skip for cancelled timers.  Two counters stay on `self` because
        # handlers observe them mid-run.
        near = self._near
        pop = near.pop
        refill = self._refill
        try:
            if until is None:
                while True:
                    if not near and not refill():
                        break
                    nt, _nseq, fn, args = pop()
                    if fn is None:  # cancellable entry: args is the handle
                        handle = args
                        fn = handle.fn
                        if fn is None:  # cancelled — skip, uncounted
                            self._dead -= 1
                            continue
                        args = handle.args
                        # Blank at dispatch so a late cancel() is a true
                        # no-op instead of corrupting _dead accounting.
                        handle.fn = None
                        handle.args = ()
                    self.now = -nt
                    self._events_processed += 1
                    fn(*args)
            else:
                while True:
                    if not near and not refill():
                        break
                    if -near[-1][0] > until:
                        break
                    nt, _nseq, fn, args = pop()
                    if fn is None:
                        handle = args
                        fn = handle.fn
                        if fn is None:
                            self._dead -= 1
                            continue
                        args = handle.args
                        handle.fn = None
                        handle.args = ()
                    self.now = -nt
                    self._events_processed += 1
                    fn(*args)
        except StopSimulation:
            self._stopped = True
        self.last_run_wall_s = time.perf_counter() - wall_start
        self.last_run_events = self._events_processed - events_before
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def _stall(self, reason: str) -> None:
        """Raise :class:`SimStall` with queue context + fabric diagnostics."""
        diag = None
        if self.stall_diagnostics is not None:
            try:
                diag = self.stall_diagnostics()
            except Exception as exc:  # diagnostics must never mask the stall
                diag = {"error": f"diagnostics failed: {exc!r}"}
        raise SimStall(
            reason,
            now=self.now,
            events_processed=self._events_processed,
            queue_length=self.queue_length,
            live_queue_length=self.live_queue_length,
            next_event_ns=self._next_time(),
            diagnostics=diag,
        )

    def _run_guarded(self, until: Optional[float]) -> None:
        """:meth:`run` variant taken when a watchdog or an event hook is set.

        Dispatch order, timestamps, and event accounting are identical to
        the hot loop; the guards only *bound* how far it gets, and
        :attr:`event_hook` sees each event just before it dispatches.  A
        tripping guard pushes the undispatched entry back by appending to
        the near list — the entry was just popped from the end, so the
        list stays sorted and a later run() with the watchdog disarmed or
        widened resumes exactly here — and raises :class:`SimStall`.  The
        wall-clock deadline is checked once every ``_WALL_STRIDE`` events,
        not per event: a syscall per dispatch is exactly the overhead the
        guard exists to avoid.
        """
        max_events, max_time, wall_s = self._watchdog or (None, None, None)
        event_budget = (
            self._events_processed + max_events if max_events is not None else None
        )
        perf = time.perf_counter
        wall_deadline = perf() + wall_s if wall_s is not None else None
        self._stopped = False
        wall_start = perf()
        events_before = self._events_processed
        near = self._near
        refill = self._refill
        hook = self.event_hook
        wall_countdown = _WALL_STRIDE
        try:
            while True:
                if not near and not refill():
                    break
                if until is not None and -near[-1][0] > until:
                    break
                entry = near.pop()
                t = -entry[0]
                fn = entry[2]
                args = entry[3]
                if fn is None:
                    handle = args
                    fn = handle.fn
                    if fn is None:
                        self._dead -= 1
                        continue
                    args = handle.args
                if max_time is not None and t > max_time:
                    near.append(entry)
                    self._stall(f"sim time exceeded {max_time:.0f}ns")
                if event_budget is not None and self._events_processed >= event_budget:
                    near.append(entry)
                    self._stall(f"event budget of {max_events} exhausted")
                if wall_deadline is not None:
                    wall_countdown -= 1
                    if wall_countdown <= 0:
                        wall_countdown = _WALL_STRIDE
                        if perf() > wall_deadline:
                            near.append(entry)
                            self._stall(f"wall-clock deadline of {wall_s}s exceeded")
                if entry[2] is None:
                    # cancellable entry survives dispatch: blank it now so a
                    # late cancel() stays a no-op (mirrors the hot loop).
                    handle.fn = None
                    handle.args = ()
                self.now = t
                self._events_processed += 1
                if hook is not None:
                    hook(t, fn, args)
                fn(*args)
        except StopSimulation:
            self._stopped = True
        finally:
            self.last_run_wall_s = perf() - wall_start
            self.last_run_events = self._events_processed - events_before
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def stop(self) -> None:
        """Stop the current :meth:`run` after the current event."""
        raise StopSimulation()

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def queue_length(self) -> int:
        """Pending queue entries, *including* cancelled-but-unpopped ones
        (the rung's are counted, not walked)."""
        return len(self._near) + self._rung_n + len(self._far)

    @property
    def live_queue_length(self) -> int:
        """Pending entries that will actually dispatch."""
        return self.queue_length - self._dead

    @property
    def events_per_wall_second(self) -> float:
        """Throughput of the most recent :meth:`run` (0 before any run)."""
        if self.last_run_wall_s <= 0.0:
            return 0.0
        return self.last_run_events / self.last_run_wall_s
