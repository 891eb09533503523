"""Property: calendar queue == heap queue, event for event.

The production calendar/ladder queue (:class:`~repro.sim.Simulator`)
stores key-negated entries in a sorted near window plus an unsorted far
overflow and refills adaptively; the binary heap
(``tests/oracles/heap_sim.py``) is the reference.  None of that may be
*observable*: across random operation interleavings (schedule /
schedule_at / cancellable timers / cancel / re-arm, same-tick ties,
negative-drift clamps, horizon/bucket-resize boundaries) and across
whole-fabric runs (healthy and faulted), the dispatched event stream
must be identical — same times, same order, same event accounting.  The
fabric comparison reuses the determinism differ's
:class:`~repro.validate.differ.EventTrace` so any divergence reports the
exact first event where the two queue implementations disagreed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule
from repro.network.dragonfly import DragonflyParams
from repro.sim import Simulator
from repro.sim.engine import _REFILL_TARGET
from repro.systems import slingshot_config
from repro.validate.differ import EventTrace
from tests.oracles.heap_sim import HeapSimulator

# Delay palette chosen to force every interesting queue regime: exact
# ties (0.0 and repeated values), sub-ns fractions, values on both sides
# of any refill horizon, and far-future outliers that stretch the refill
# span so the adaptive width partitions rather than takes everything.
_DELAYS = (
    0.0,
    0.0,
    1.0,
    1.0,
    0.25,
    3.5,
    7.0,
    64.0,
    1_000.0,
    1_000.0,
    250_000.0,
    9e6,
)


def _drive(sim, ops, budget):
    """Run *ops* against *sim*; return the dispatch log [(now, tag)].

    Pre-schedules one entry per op, then lets handlers schedule, cancel,
    and re-arm timers mid-run from a seeded RNG.  Both queue kinds see
    the same op list and the same RNG seed, so as long as dispatch stays
    identical the two runs make identical draws — the assertion below
    verifies exactly that.
    """
    rng = random.Random(20_260_808)
    log = []
    handles = []
    fuel = [budget]

    def fire(tag):
        log.append((sim.now, tag))
        if fuel[0] <= 0:
            return
        fuel[0] -= 1
        r = rng.random()
        if r < 0.20 and handles:
            handles.pop(rng.randrange(len(handles))).cancel()
        elif r < 0.45:
            h = sim.schedule_cancellable(
                rng.choice(_DELAYS), fire, tag * 31 + 7
            )
            handles.append(h)
        elif r < 0.60 and handles:
            # re-arm: cancel a pending timer and replace it immediately
            h = handles.pop(rng.randrange(len(handles)))
            h.cancel()
            handles.append(
                sim.schedule_cancellable(rng.choice(_DELAYS), fire, tag + 17)
            )
        elif r < 0.80:
            sim.schedule(rng.choice(_DELAYS), fire, tag + 1_000)
        else:
            # negative-drift clamp: a deadline an attosecond in the past
            sim.schedule_at(sim.now - 1e-9, fire, tag + 2_000)

    for i, (kind, delay_idx) in enumerate(ops):
        delay = _DELAYS[delay_idx]
        if kind == 0:
            sim.schedule(delay, fire, i)
        elif kind == 1:
            sim.schedule_at(delay, fire, i)
        else:
            handles.append(sim.schedule_cancellable(delay, fire, i))
    sim.run()
    return log


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, len(_DELAYS) - 1)),
        min_size=1,
        max_size=40,
    ),
    budget=st.integers(0, 400),
)
def test_random_interleavings_dispatch_identically(ops, budget):
    log_cal = _drive(Simulator(), ops, budget)
    log_heap = _drive(HeapSimulator(), ops, budget)
    assert log_cal == log_heap


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_run_until_stepping_dispatches_identically(seed):
    """Repeated run(until=...) slices must agree too (the calendar peeks
    across refills at the until boundary)."""

    def stepped(sim):
        rng = random.Random(seed)
        log = []

        def fire(tag):
            log.append((sim.now, tag))
            if tag < 300:
                sim.schedule(rng.choice(_DELAYS), fire, tag + 1)

        for i in range(8):
            sim.schedule(rng.choice(_DELAYS), fire, i)
        t = 0.0
        while sim.queue_length:
            t += 2_000.0
            sim.run(until=t)
        return log

    assert stepped(Simulator()) == stepped(HeapSimulator())


def test_refill_boundary_regimes():
    """Force each refill path: take-all, one-timestamp span, and the
    adaptive partition with more than _REFILL_TARGET far entries."""
    for n, times in (
        # > _REFILL_TARGET entries over a wide span -> partitioned refill
        (3 * _REFILL_TARGET, lambda i: float(i % 97) * 1_000.0),
        # everything at one timestamp -> span == 0 take-all
        (2 * _REFILL_TARGET, lambda i: 42.0),
        # tiny far list -> plain take-all
        (17, lambda i: float(i)),
    ):
        logs = []
        for sim in (Simulator(), HeapSimulator()):
            log = []
            for i in range(n):
                sim.schedule(times(i), log.append, (times(i), i))
            sim.run()
            assert sim.events_processed == n
            logs.append(log)
        assert logs[0] == logs[1]


def test_mid_run_compaction_keeps_new_events_live():
    """Regression: _compact() must mutate the queue lists in place.

    The run loop binds the queue container to a local; the old heap
    implementation *reassigned* ``_queue`` during compaction, so a
    compaction triggered from inside a handler (a cancel storm) would
    strand every event scheduled afterwards in a list the loop never
    reads.  Both queues must survive this.
    """
    for sim in (Simulator(), HeapSimulator()):
        kind = type(sim).__name__
        fired = []

        def storm():
            # create + cancel enough timers to cross the compaction
            # threshold (dead > 64 and dead*2 > queue length) mid-run
            for _ in range(200):
                sim.schedule_cancellable(50.0, fired.append, "never").cancel()
            sim.schedule(1.0, fired.append, "after-compact")

        sim.schedule(0.0, storm)
        sim.run()
        assert fired == ["after-compact"], kind
        assert sim.queue_length == 0, kind


# -- whole-fabric equivalence (EventTrace) --------------------------------


def _run_traced(cfg, seed, schedule_of=None, sim=None):
    fabric = cfg.build(sim=sim)
    if schedule_of is not None:
        fabric.attach_faults(
            schedule_of(fabric), base_rto_ns=100_000.0, max_rto_ns=400_000.0
        )
    trace = EventTrace()
    fabric.sim.event_hook = trace
    rng = random.Random(seed)
    nn = fabric.topology.n_nodes
    sent = 0
    while sent < 12:
        src, dst = rng.randrange(nn), rng.randrange(nn)
        if src == dst:
            continue
        fabric.send(src, dst, rng.choice([8, 4_000, 24_000]))
        sent += 1
    fabric.sim.run()
    return fabric, trace


def _assert_fabric_equivalent(cfg, seed, schedule_of=None):
    fab_cal, trace_cal = _run_traced(cfg, seed, schedule_of)
    fab_heap, trace_heap = _run_traced(cfg, seed, schedule_of, HeapSimulator())
    n = min(len(trace_cal), len(trace_heap))
    for i in range(n):
        assert trace_cal.events[i] == trace_heap.events[i], (
            f"first divergence at event {i}: "
            f"calendar={trace_cal.events[i]!r} heap={trace_heap.events[i]!r}"
        )
    assert len(trace_cal) == len(trace_heap)
    assert fab_cal.sim.events_processed == fab_heap.sim.events_processed
    assert fab_cal.sim.now == fab_heap.sim.now
    assert fab_cal.packets_delivered() == fab_heap.packets_delivered()
    assert fab_cal.packets_dropped() == fab_heap.packets_dropped()


@settings(max_examples=6, deadline=None)
@given(
    p=st.integers(1, 2),
    a=st.integers(2, 3),
    g=st.integers(2, 4),
    links=st.integers(1, 2),
    seed=st.integers(0, 1_000),
)
def test_calendar_matches_heap_healthy_fabric(p, a, g, links, seed):
    cfg = slingshot_config(
        DragonflyParams(p, a, g, links_per_pair=links), seed=seed
    )
    _assert_fabric_equivalent(cfg, seed)


@settings(max_examples=6, deadline=None)
@given(
    p=st.integers(1, 2),
    a=st.integers(2, 3),
    g=st.integers(2, 4),
    seed=st.integers(0, 1_000),
    n_faults=st.integers(1, 4),
)
def test_calendar_matches_heap_under_faults(p, a, g, seed, n_faults):
    """Fault schedules exercise retransmission timers (cancel/re-arm
    churn), port fail/recover drops, and watchdog-free long horizons."""
    cfg = slingshot_config(
        DragonflyParams(p, a, g, links_per_pair=2), seed=seed
    )

    def schedule_of(fabric):
        return FaultSchedule.generate(
            fabric,
            seed=seed,
            n_faults=n_faults,
            t_start=5_000.0,
            t_end=400_000.0,
            switch_faults=seed % 2,
        )

    _assert_fabric_equivalent(cfg, seed, schedule_of)
