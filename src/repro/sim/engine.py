"""Discrete-event simulation core.

The simulator dispatches events in strict ``(time, push order)`` order:
two events scheduled for the same simulated time always fire in the
order they were scheduled, regardless of Python hash randomization or
container internals.  Determinism is a hard requirement here — the
property-based tests compare runs event for event.

The queue keeps one *slot* per pending timestamp.  A dict maps each
pending time to its entries in push order — one ``(fn, args)`` tuple,
which becomes a list once a second event shares that time — and a
``heapq`` holds the distinct pending times.  A push appends to its
time's slot, and only a push that opens a new slot touches the heap.
Dispatch pops the earliest time and runs its slot's entries in order,
which is exactly a binary heap's ``(time, seq)`` order; the heap oracle
in ``tests/oracles/heap_sim.py`` pins that event for event, every tie
included.  Equal-size packets on equal-length wires put many events on
one timestamp (29 per time on the 80-node bisection, 32 on the 1,024-node
one), so the heap sees one entry per slot, not per event.  A slot stays
in the queue's hands until the run loop takes it:

* a push at the current time made while that time's slot is dispatching
  opens a new slot, which runs after the one being dispatched;
* an exception, a :class:`StopSimulation` or a watchdog trip in the
  middle of a slot puts the undispatched remainder back, ahead of any
  same-time pushes made since;
* :attr:`Simulator.queue_length` counts that remainder, and a
  compaction from inside a slot filters it too.

Cancellable timers use *lazy deletion*: :meth:`Simulator.schedule_cancellable`
returns a :class:`TimerHandle` whose O(1) :meth:`~TimerHandle.cancel` blanks
the handler; the run loop discards blanked entries without dispatching them
(they neither count as processed events nor advance the clock).  When dead
entries ever make up more than half the queue it is compacted in one O(n)
pass (in place — the run loops hold direct references to the queue), so
the queue stays proportional to the number of *live* timers no matter how
often producers re-arm.

Time is measured in **nanoseconds** (floats), sizes in **bytes**, and
bandwidths in **bytes per nanosecond** (so 200 Gb/s == 25 B/ns).  These
units are used consistently across the whole package; see
``repro.network.units`` for named constants and converters.

Producer contract (v2, stable): hot producers enqueue through

    sim.push(t, fn, args)

with an absolute time ``t >= sim.now`` and a pre-built args *tuple*.
``push`` appends the entry to time *t*'s slot — it is bit- and
order-identical to :meth:`Simulator.schedule` minus the delay guard and
the ``*args`` packing frame.  No code outside this module may touch the
queue containers (grep for ``sim._pending`` / ``sim._times`` must come up
empty outside ``repro.sim``).

Two run loops exist: the hot loop (no hook, no watchdog) and one
instrumented loop that honours both :attr:`Simulator.event_hook` and the
watchdog guards.
"""

from __future__ import annotations

import contextlib
import time
from heapq import heapify, heappop, heappush
from math import inf
from operator import length_hint
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "StopSimulation",
    "TimerHandle",
    "PeriodicTick",
    "SimStall",
    "default_watchdog",
]

#: Absolute-time deltas smaller than this are float drift, not user error:
#: repeated ``now + rto`` style arithmetic can land an attoseconds-stale
#: deadline.  ``schedule_at`` clamps these to "now" instead of raising.
_NEGATIVE_DRIFT_NS = 1e-6

#: Guarded run loop: events dispatched between wall-clock deadline checks.
#: A tripped deadline is detected at most this many events late; the
#: regression test pins that bound.
_WALL_STRIDE = 256


def _live(entry: tuple) -> bool:
    """False for a queue entry whose cancellable timer was cancelled."""
    return entry[0] is not None or entry[1].fn is not None


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
#: :func:`default_watchdog`).  None = no guards, default hot loop.
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


@contextlib.contextmanager
def default_watchdog(
    max_events: Optional[int] = None,
    max_sim_time_ns: Optional[float] = None,
    wall_deadline_s: Optional[float] = None,
):
    """Arm a process-wide default watchdog for the duration of the block
    (no arguments: no guards), restoring the previous default on exit,
    even on error.

    Every :class:`Simulator` constructed inside the block starts with the
    given guards, exactly as if :meth:`Simulator.watchdog` had been
    called on it; existing simulators are untouched.  This is how the
    campaign harness arms in-sim watchdogs inside worker functions it
    cannot modify: every fabric a cell builds inherits the guards.
    """
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


class PeriodicTick:
    """Calls ``fn()`` every *interval_ns* of simulated time while the run
    has other work.

    The one tick rule of every sampler that watches a run from the event
    queue (the time-series engine, the invariant auditor's sweep): after
    ``fn`` a tick re-arms only while the queue holds a live entry that is
    not a pending tick, so any number of samplers on one simulator still
    let :meth:`Simulator.run` drain — once nothing but ticks and
    cancelled timers is queued, each fires once more and stops.  The
    simulator counts the pending ticks (:attr:`Simulator.periodic_ticks`).
    """

    __slots__ = ("sim", "interval_ns", "fn", "_timer")

    def __init__(self, sim: "Simulator", interval_ns: float, fn: Callable):
        if not interval_ns > 0:
            raise ValueError(f"tick interval must be positive, got {interval_ns}")
        self.sim = sim
        self.interval_ns = interval_ns
        self.fn = fn
        self._timer: Optional[TimerHandle] = None

    def start(self) -> None:
        """Arm the next tick (idempotent)."""
        if self._timer is None:
            self.sim.periodic_ticks += 1
            self._timer = self.sim.schedule_cancellable(self.interval_ns, self._fire)

    def stop(self) -> None:
        """Cancel the pending tick (idempotent)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self.sim.periodic_ticks -= 1

    def _fire(self) -> None:
        sim = self.sim
        self._timer = None
        sim.periodic_ticks -= 1
        self.fn()
        if sim.live_queue_length > sim.periodic_ticks:
            self.start()


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
        "_pending",
        "_times",
        "_group",
        "_group_iter",
        "_extra",
        "_events_processed",
        "_stopped",
        "_dead",
        "periodic_ticks",
        "last_run_events",
        "last_run_wall_s",
        "event_hook",
        "_watchdog",
        "stall_diagnostics",
    )

    def __init__(self):
        self.now: float = 0.0
        #: pending time -> its entries in push order: one (fn, args) tuple,
        #: or a list of them once a second event shares that time
        self._pending: dict = {}
        #: heapq of the distinct pending times (the keys of _pending).
        #: Mutated strictly in place — run loops hold direct references.
        self._times: list = []
        #: the multi-entry slot being dispatched and the run loop's
        #: iterator over it, whose remainder is still pending (see
        #: _compact); run() lets go of the slot when it returns, so the
        #: queue keeps no dispatched entry (nor the packet it carries)
        self._group: list = []
        self._group_iter = None
        #: pending entries beyond the first of each slot, so that
        #: queue_length is len(_times) + _extra + the slot remainder
        self._extra: int = 0
        self._events_processed: int = 0
        self._stopped = False
        #: cancelled-but-unpopped queue entries (lazy deletion bookkeeping)
        self._dead: int = 0
        #: pending PeriodicTick entries; only the ticks read it, never a
        #: run loop
        self.periodic_ticks: int = 0
        # event-loop diagnostics for telemetry: how the last run() call
        # performed in *wall-clock* terms (pure observation; never feeds
        # back into simulated behaviour)
        self.last_run_events: int = 0
        self.last_run_wall_s: float = 0.0
        #: per-event observer ``hook(t, fn, args)`` (repro.validate's
        #: determinism differ); None (with no watchdog) routes run() to
        #: the hot loop, so a hookless run pays nothing per event
        self.event_hook: Optional[Callable] = None
        #: watchdog guards (max_events, max_sim_time_ns, wall_deadline_s);
        #: None (with no hook) routes run() to the hot loop.  New
        #: simulators inherit the process-wide default
        #: (default_watchdog).
        self._watchdog: Optional[tuple] = _DEFAULT_WATCHDOG
        #: zero-argument callable returning a plain-data quiescence
        #: snapshot, attached to any SimStall this simulator raises.  The
        #: fabric registers its quiescence_snapshot here at build time.
        self.stall_diagnostics: Optional[Callable[[], Dict[str, Any]]] = None

    # -- scheduling -------------------------------------------------------

    def push(self, t: float, fn: Callable, args: tuple = ()) -> None:
        """Enqueue ``fn(*args)`` at absolute time *t* — the producer API.

        The stable hot-path contract (v2): *t* must already be validated
        (``t >= now`` up to float drift) and *args* must be a tuple.  No
        guards run here; :meth:`schedule` / :meth:`schedule_at` are the
        checked front doors.  The entry joins the end of time *t*'s slot,
        so same-time entries dispatch in call order; only a push that
        opens a slot touches the heap of pending times.
        """
        entry = (fn, args)
        slot = self._pending.setdefault(t, entry)
        if slot is entry:
            heappush(self._times, t)
        else:
            self._extra += 1
            if slot.__class__ is list:
                slot.append(entry)
            else:
                self._pending[t] = [slot, entry]

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
        """Drop cancelled entries in place (live entries keep their order).

        In place matters: the run loops bind the heap of times to a local,
        so rebuilding it into a *new* list would strand events pushed
        after a mid-run compaction (a cancel inside a dispatched handler
        can get here while run() is on the stack).  In that case the
        undispatched remainder of the slot being dispatched is filtered
        too, in place, so the run loop's iterator resumes on what is left.
        """
        pending = self._pending
        removed = 0
        extra = 0
        emptied = False
        for t, slot in list(pending.items()):
            if slot.__class__ is list:
                kept = [e for e in slot if _live(e)]
                removed += len(slot) - len(kept)
                if kept:
                    pending[t] = kept
                    extra += len(kept) - 1
                else:
                    del pending[t]
                    emptied = True
            elif not _live(slot):
                del pending[t]
                removed += 1
                emptied = True
        n = length_hint(self._group_iter)
        if n:
            group = self._group
            kept = [e for e in group[-n:] if _live(e)]
            removed += n - len(kept)
            group[-n:] = kept
        if emptied:
            times = self._times
            times[:] = pending
            heapify(times)
        self._extra = extra
        self._dead -= removed

    def _put_back(self, t: float, rest: list) -> None:
        """Return *rest*, the undispatched tail of time *t*'s slot, to the
        queue, ahead of any entries pushed at *t* since the slot was
        taken (they were pushed later, so they dispatch later)."""
        if not rest:
            return
        self._extra += len(rest)
        later = self._pending.get(t)
        if later is None:
            heappush(self._times, t)
            self._extra -= 1
        elif later.__class__ is list:
            rest += later
        else:
            rest.append(later)
        self._pending[t] = rest

    def _next_time(self) -> Optional[float]:
        """Timestamp of the next live-or-dead entry (None if drained)."""
        times = self._times
        return times[0] if times else None

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
        hot loop; otherwise the guarded loop, which honours both.
        """
        if self._watchdog is None and self.event_hook is None:
            self._run_hot(until)
        else:
            self._run_guarded(until)

    def _run_hot(self, until: Optional[float]) -> None:
        """Default hot loop (no hook, no watchdog)."""
        self._stopped = False
        wall_start = time.perf_counter()
        events_before = self._events_processed
        # Hot loop: the heap of times and the slot dict's pop as locals
        # (both are mutated strictly in place, so the bindings stay
        # valid), the `until` test once per slot, a one-entry slot
        # dispatched with no list or iterator, and a dispatch-free fast
        # skip for cancelled timers.  Two counters stay on `self` because
        # handlers observe them mid-run.
        times = self._times
        take = self._pending.pop
        limit = inf if until is None else until
        t = 0.0
        it = None  # iterator over the multi-entry slot being dispatched
        try:
            while times and not times[0] > limit:
                t = heappop(times)
                slot = take(t)
                if slot.__class__ is tuple:
                    fn, args = slot
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
                    self.now = t
                    self._events_processed += 1
                    fn(*args)
                else:
                    self._extra -= len(slot) - 1
                    self._group = slot
                    self._group_iter = it = iter(slot)
                    for fn, args in it:
                        if fn is None:
                            handle = args
                            fn = handle.fn
                            if fn is None:
                                self._dead -= 1
                                continue
                            args = handle.args
                            handle.fn = None
                            handle.args = ()
                        self.now = t
                        self._events_processed += 1
                        fn(*args)
        except StopSimulation:
            self._stopped = True
        finally:
            if it is not None:  # a slot left mid-way: its rest stays queued
                self._put_back(t, list(it))
            self._group = []
        self.last_run_wall_s = time.perf_counter() - wall_start
        self.last_run_events = self._events_processed - events_before
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def _stall(self, reason: str, t: float, entry: tuple, rest) -> None:
        """Put the tripping *entry* back at time *t*, ahead of *rest* (the
        run loop's iterator over its slot, or None), and raise
        :class:`SimStall` with queue context + fabric diagnostics."""
        self._put_back(t, [entry] if rest is None else [entry, *rest])
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
        tripping guard puts the undispatched entry and the rest of its
        slot back, so a later run() with the watchdog disarmed or widened
        resumes exactly here, and raises :class:`SimStall`.  The
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
        times = self._times
        take = self._pending.pop
        limit = inf if until is None else until
        hook = self.event_hook
        wall_countdown = _WALL_STRIDE
        t = 0.0
        it = None  # iterator over the multi-entry slot being dispatched
        try:
            while True:
                if it is None:
                    if not times or times[0] > limit:
                        break
                    t = heappop(times)
                    entry = take(t)
                    if entry.__class__ is list:
                        self._extra -= len(entry) - 1
                        self._group = entry
                        self._group_iter = it = iter(entry)
                        continue
                else:
                    entry = next(it, None)
                    if entry is None:
                        it = None
                        continue
                fn, args = entry
                if fn is None:
                    handle = args
                    fn = handle.fn
                    if fn is None:
                        self._dead -= 1
                        continue
                    args = handle.args
                if max_time is not None and t > max_time:
                    self._stall(f"sim time exceeded {max_time:.0f}ns", t, entry, it)
                if event_budget is not None and self._events_processed >= event_budget:
                    self._stall(f"event budget of {max_events} exhausted", t, entry, it)
                if wall_deadline is not None:
                    wall_countdown -= 1
                    if wall_countdown <= 0:
                        wall_countdown = _WALL_STRIDE
                        if perf() > wall_deadline:
                            self._stall(
                                f"wall-clock deadline of {wall_s}s exceeded",
                                t, entry, it,
                            )
                if entry[0] is None:
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
            if it is not None:
                self._put_back(t, list(it))
            self._group = []
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
        and the undispatched rest of the slot being dispatched (counted,
        not walked)."""
        return len(self._times) + self._extra + length_hint(self._group_iter)

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
