"""Property: production event queue == heap queue, event for event.

The production queue (:class:`~repro.sim.Simulator`) keeps one slot per
pending timestamp — a dict from each time to its entries in push order
and a heap of the distinct times — and the binary heap of ``(time, seq)``
entries (``tests/oracles/heap_sim.py``) is the reference.  None of that
may be *observable*: across random operation interleavings (schedule /
schedule_at / cancellable timers / cancel / re-arm, same-tick ties,
negative-drift clamps, pre-loaded queues), across the edges of a slot
(same-time pushes made while it dispatches, a stop, an exception or a
watchdog trip in its middle, a compaction from inside it, queue lengths
read inside it, cancelled timers at the end of a run), and across
whole-fabric runs (healthy, faulted, and bisections that put dozens of
events on each timestamp), the dispatched event stream must be identical
— same times, same order, same event accounting.  The fabric comparisons
that attach an :class:`~repro.validate.differ.EventTrace` run the guarded
loop; the delivery-handler comparison runs the hot loop with no hook.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule
from repro.network.buffers import VcBufferPool
from repro.network.dragonfly import DragonflyParams
from repro.network.nic import NIC
from repro.network.switch import OutputPort, Switch
from repro.network.units import KiB
from repro.sim import SimStall, Simulator
from repro.systems import malbec_mini, slingshot_config
from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.scraper import CounterScraper
from repro.validate.differ import EventTrace
from tests.oracles.heap_sim import HeapSimulator

# Delay palette chosen to force every interesting queue regime: exact
# ties (0.0 and repeated values, so slots hold several entries), sub-ns
# fractions, and far-future outliers.
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


def _drive(sim, ops, budget, preload=0):
    """Run *ops* against *sim*; return the dispatch log [(now, tag)].

    Pre-schedules *preload* entries at seeded times, then one entry per
    op, then lets handlers schedule, cancel, and re-arm timers mid-run
    from a seeded RNG.  Both queue kinds see the same op list and the
    same RNG seed, so as long as dispatch stays identical the two runs
    make identical draws — the assertion below verifies exactly that.
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

    pre = random.Random(preload)
    for i in range(preload):
        if pre.random() < 0.8:
            t = pre.random() * 2_000.0
        else:
            t = pre.choice(_DELAYS)
        sim.schedule(t, fire, -1 - i)
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
    preload=st.integers(0, 512),
)
def test_random_interleavings_dispatch_identically(ops, budget, preload):
    assert _drive(Simulator(), ops, budget, preload) == _drive(
        HeapSimulator(), ops, budget, preload
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_run_until_stepping_dispatches_identically(seed):
    """Repeated run(until=...) slices must agree too (the queue peeks at
    the next slot's time at the until boundary)."""

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


# -- the edges of a per-time slot ------------------------------------------
#
# Each scenario drives one simulator and returns what a handler or the
# caller can observe: every dispatch with the clock and both queue
# lengths at that moment, and the state after each run() call.  The
# production queue runs it in both loops (an event hook routes run() to
# the guarded one) and must match the heap oracle exactly.


def _observed(sim, log, tag):
    log.append((sim.now, tag, sim.queue_length, sim.live_queue_length))


def _on_both(scenario, loop):
    sim = Simulator()
    if loop == "guarded":
        sim.event_hook = lambda t, fn, args: None
    got = scenario(sim)
    want = scenario(HeapSimulator())
    assert got == want
    return got


_LOOPS = pytest.mark.parametrize("loop", ["hot", "guarded"])


def _same_time_pushes(sim):
    log = []

    def fire(tag, depth):
        _observed(sim, log, tag)
        if depth:
            sim.schedule(0.0, fire, tag + "s", depth - 1)
            sim.push(sim.now, fire, (tag + "p", depth - 1))
            sim.schedule_at(sim.now, fire, tag + "a", depth - 1)
            sim.schedule(1.0, fire, tag + "n", depth - 1)

    for k in range(4):
        sim.schedule(10.0, fire, f"x{k}", 2)
    sim.schedule(11.0, fire, "y", 1)
    sim.run()
    _observed(sim, log, "end")
    return log


@_LOOPS
def test_same_time_pushes_from_inside_a_slot_run_after_it(loop):
    """A push at the current time made while that time's slot dispatches
    opens a new slot that runs after the whole current one."""
    log = _on_both(_same_time_pushes, loop)
    # x0..x3 dispatch back to back before any of their same-time pushes
    assert [tag for _, tag, _, _ in log[:5]] == ["x0", "x1", "x2", "x3", "x0s"]


def _interrupted_slot(sim):
    log = []

    def fire(tag):
        _observed(sim, log, tag)
        if tag == "stop":
            sim.schedule(0.0, fire, "after-stop")
            sim.stop()
        elif tag == "boom":
            sim.schedule(0.0, fire, "after-boom")
            raise RuntimeError("boom")

    for tag in ("x0", "stop", "x1", "x2", "boom", "x3"):
        sim.schedule(5.0, fire, tag)
    sim.schedule_cancellable(5.0, fire, "timer")
    sim.schedule(6.0, fire, "later")
    sim.run()
    _observed(sim, log, "stopped")
    sim.schedule(0.0, fire, "pushed-after-stop")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    _observed(sim, log, "raised")
    sim.schedule(0.0, fire, "pushed-after-raise")
    sim.run()
    _observed(sim, log, "end")
    return log


@_LOOPS
def test_stop_and_exception_mid_slot_resume_identically(loop):
    """A StopSimulation and a plain exception in the middle of a slot put
    its undispatched remainder back ahead of the same-time pushes made
    since (by the stopping handler and by the caller), and the resumed
    run() picks up exactly there."""
    tags = [tag for _, tag, _, _ in _on_both(_interrupted_slot, loop)]
    assert tags == [
        "x0", "stop", "stopped",
        "x1", "x2", "boom", "raised",
        "x3", "timer", "after-stop", "pushed-after-stop", "after-boom",
        "pushed-after-raise",
        "later", "end",
    ]


def _compaction_inside_a_slot(sim):
    log = []
    timers = []

    def fire(tag):
        _observed(sim, log, tag)

    def storm():
        _observed(sim, log, "storm")
        for k, h in enumerate(timers):
            if k % 3:
                h.cancel()
                _observed(sim, log, ("cancel", k))

    sim.schedule(100.0, fire, "first")
    sim.schedule(100.0, storm)
    for i in range(240):
        # half of the timers share the storm's slot, the rest get their own
        timers.append(
            sim.schedule_cancellable(100.0 if i % 2 else 100.0 + i, fire, i)
        )
    for h in timers[:90:3]:
        h.cancel()  # dead before the run: below the compaction threshold
    sim.run()
    _observed(sim, log, "end")
    return log


@_LOOPS
def test_compaction_from_inside_a_slot_filters_its_remainder(loop):
    """A cancel() that compacts the queue from inside a slot whose
    undispatched remainder holds cancelled timers: both queue lengths
    match the heap's after every cancel and at every later dispatch, so
    the compaction dropped the remainder's dead entries and lowered the
    dead count by exactly what it dropped."""
    log = _on_both(_compaction_inside_a_slot, loop)
    lengths = [q for _, tag, q, _ in log if isinstance(tag, tuple)]
    assert any(b < a for a, b in zip(lengths, lengths[1:]))  # compacted
    assert log[-1][2:] == (0, 0)


def _scraper_beside_work(sim):
    registry = TelemetryRegistry()
    done = registry.counter("work.done")
    scraper = CounterScraper(sim, registry, interval_ns=100.0).start()

    def work(k):
        done.inc()
        if k < 3:
            sim.schedule(100.0, work, k + 1)

    # pushed after the scraper's first tick: each tick heads a slot whose
    # remainder is the only other pending work
    sim.schedule(100.0, work, 0)
    sim.run()
    return scraper.times, scraper.get("work.done"), sim.now


@_LOOPS
def test_queue_length_inside_a_slot_counts_its_remainder(loop):
    """A handler reading queue_length inside a slot counts the slot's
    undispatched remainder: the telemetry scraper, which stops re-arming
    when it reads 0, keeps sampling while same-time work follows it."""
    times, done, _ = _on_both(_scraper_beside_work, loop)
    assert times == [100.0, 200.0, 300.0, 400.0, 500.0]
    assert done == [0, 1, 2, 3, 4]


def _cancelled_tail(sim):
    log = []
    late = []

    def fire(tag):
        _observed(sim, log, tag)
        if tag == "cancel-late":
            for h in late:
                h.cancel()

    sim.schedule(1.0, fire, "first")
    sim.schedule(2.0, fire, "cancel-late")
    late.append(sim.schedule_cancellable(2.0, fire, "same-slot"))
    late.append(sim.schedule_cancellable(3.0, fire, "own-slot"))
    for k in range(3):
        late.append(sim.schedule_cancellable(4.0, fire, ("shared", k)))
    early = [sim.schedule_cancellable(5.0, fire, "early") for _ in range(2)]
    for h in early:
        h.cancel()
    sim.run()
    _observed(sim, log, "end")
    return log


@_LOOPS
def test_cancelled_timers_never_advance_the_clock(loop):
    """A run whose last pending entries are cancelled timers, alone in a
    slot, sharing one, or behind the canceller in its own slot, ends
    with the clock on the last event that dispatched."""
    log = _on_both(_cancelled_tail, loop)
    assert log[-1] == (2.0, "end", 0, 0)


def _watchdog_scenario(sim, log):
    def fire(tag, depth):
        _observed(sim, log, tag)
        if depth:
            sim.schedule(0.0, fire, tag + "s", depth - 1)
            sim.schedule(2.0, fire, tag + "n", depth - 1)

    for k in range(8):
        sim.schedule(10.0, fire, f"x{k}", 2)
    sim.schedule_cancellable(10.0, fire, "timer", 0)
    sim.schedule(20.0, fire, "y", 0)


@pytest.mark.parametrize("max_events", [1, 2, 7])
def test_watchdog_trip_mid_slot_resumes_like_an_untripped_run(max_events):
    """A max_sim_time_ns trip at a slot's head puts the whole slot back;
    max_events trips in the middle of a slot put back the tripping entry
    and the slot's remainder.  Resumed runs, the last with the watchdog
    disarmed, give the dispatch log, clock and queue lengths of an
    untripped heap run (the oracle has no watchdog)."""
    want = []
    heap = HeapSimulator()
    _watchdog_scenario(heap, want)
    heap.run()
    _observed(heap, want, "end")

    got = []
    sim = Simulator()
    _watchdog_scenario(sim, got)
    sim.watchdog(max_sim_time_ns=11.0)
    with pytest.raises(SimStall) as trip:
        sim.run()
    assert trip.value.next_event_ns == 12.0 and sim.now == 10.0
    sim.watchdog(max_events=max_events)
    mid_slot = 0
    for _ in range(3):
        with pytest.raises(SimStall) as trip:
            sim.run()
        assert trip.value.queue_length == sim.queue_length
        mid_slot += trip.value.next_event_ns == sim.now
    sim.watchdog()
    sim.run()
    _observed(sim, got, "end")
    assert got == want
    assert mid_slot >= 2


def test_mid_run_compaction_keeps_new_events_live():
    """Regression: _compact() must mutate the queue containers in place.

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


def test_queue_matches_heap_on_a_bisection_with_many_events_per_time():
    """The 80-node bisection at 256 KiB per node puts ~29 events on each
    timestamp (equal-size packets on equal-length wires), so nearly every
    slot holds many entries while the fabric pushes into it and into the
    next ones; every dispatched event must match."""

    def run(sim):
        fabric = malbec_mini().build(sim=sim)
        trace = EventTrace()
        sim.event_hook = trace
        n = fabric.topology.n_nodes
        for i in range(n):
            fabric.send(i, (i + n // 2) % n, 256 * KiB)
        sim.run()
        return fabric, trace

    _assert_same_dispatch(run(Simulator()), run(HeapSimulator()))


# -- the hot loop, call for call (no hook) ---------------------------------

#: the delivery path's event handlers (every component binds them at
#: build, so they are wrapped before the build)
_DELIVERY_HANDLERS = (
    (OutputPort, "_on_sent"),
    (Switch, "receive"),
    (Switch, "_forward"),
    (NIC, "receive"),
    (NIC, "on_ack"),
    (VcBufferPool, "release"),
)


def _bisection_256k(fabric):
    n = fabric.topology.n_nodes
    for i in range(n):
        fabric.send(i, (i + n // 2) % n, 256 * KiB)


def _faulted_16k(fabric):
    fabric.attach_faults(
        FaultSchedule.generate(
            fabric,
            seed=7,
            n_faults=3,
            switch_faults=1,
            t_start=5_000.0,
            t_end=400_000.0,
        )
    )
    n = fabric.topology.n_nodes
    for i in range(n):
        fabric.send(i, (i + n // 2) % n, 16 * KiB)


def _component_labels(fabric):
    """id -> run-stable name for every switch, NIC, port and credit pool."""
    labels = {id(sw): f"switch.{sw.id}" for sw in fabric.switches}
    labels.update((id(nic), f"nic.{nic.node}") for nic in fabric.nics)
    for i, (owner, port) in enumerate(fabric.all_ports()):
        labels[id(port)] = f"{owner}/port{i}"
        for tc, pool in enumerate(port.credits):
            labels.setdefault(id(pool), f"{owner}/port{i}/pool{tc}")
    return labels


@pytest.mark.parametrize("cell", [_bisection_256k, _faulted_16k])
def test_hot_loop_matches_heap_call_for_call(monkeypatch, cell):
    """The loop every campaign cell runs (no hook, no watchdog) is pinned
    call for call: each delivery-path handler logs (now, handler,
    component) and the production queue must match the heap oracle on
    every call and on the final clock.  The faulted cell ends in
    cancelled retransmission timers, which must not move the clock."""
    calls = []
    current = {}

    def wrap(cls, name):
        handler = getattr(cls, name)

        def logged(self, *args):
            calls.append((current["sim"].now, name, current["labels"][id(self)]))
            return handler(self, *args)

        monkeypatch.setattr(cls, name, logged)

    for cls, name in _DELIVERY_HANDLERS:
        wrap(cls, name)

    def run(sim):
        calls.clear()
        current["sim"] = sim
        fabric = malbec_mini().build(sim=sim)
        current["labels"] = _component_labels(fabric)
        cell(fabric)
        assert sim.event_hook is None and sim._watchdog is None
        sim.run()
        return list(calls), sim.now, sim.events_processed

    (got, now, events), (want, heap_now, heap_events) = (
        run(Simulator()),
        run(HeapSimulator()),
    )
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"first divergence at call {i}: {a!r} != {b!r}"
    assert len(got) == len(want)
    assert {name for _, name, _ in got} == {n for _, n in _DELIVERY_HANDLERS}
    assert now == heap_now and events == heap_events


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


def _assert_same_dispatch(cal, heap):
    """Compare two ``(fabric, EventTrace)`` runs event for event."""
    (fab_cal, trace_cal), (fab_heap, trace_heap) = cal, heap
    for i, (a, b) in enumerate(zip(trace_cal.events, trace_heap.events)):
        assert a == b, f"first divergence at event {i}: {a!r} != {b!r}"
    assert len(trace_cal) == len(trace_heap)
    assert fab_cal.sim.events_processed == fab_heap.sim.events_processed
    assert fab_cal.sim.now == fab_heap.sim.now
    assert fab_cal.packets_delivered() == fab_heap.packets_delivered()
    assert fab_cal.packets_dropped() == fab_heap.packets_dropped()


def _assert_fabric_equivalent(cfg, seed, schedule_of=None):
    _assert_same_dispatch(
        _run_traced(cfg, seed, schedule_of),
        _run_traced(cfg, seed, schedule_of, HeapSimulator()),
    )


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
