"""Property: production event queue == heap queue, event for event.

The production ladder queue (:class:`~repro.sim.Simulator`) stores
key-negated entries in a sorted near window, one rung of unsorted time
buckets and an unsorted far overflow that is spread into a fresh rung
once the old one is used up; the binary heap (``tests/oracles/heap_sim.py``)
is the reference.  None of that may be *observable*: across random
operation interleavings (schedule / schedule_at / cancellable timers /
cancel / re-arm, same-tick ties, negative-drift clamps, pre-loaded queues
that spread into a rung), across the refill boundaries (bucket edges to
the ulp, pushes into untaken buckets and past the rung, compaction with
dead timers in the rung) and across whole-fabric runs (healthy, faulted,
and a bisection that spreads many times), the dispatched event stream
must be identical — same times, same order, same event accounting.  The
fabric comparison reuses the determinism differ's
:class:`~repro.validate.differ.EventTrace` so any divergence reports the
exact first event where the two queue implementations disagreed.
"""

import random
from math import inf, nextafter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule
from repro.network.dragonfly import DragonflyParams
from repro.network.units import KiB
from repro.sim import Simulator
from repro.sim.engine import _REFILL_TARGET
from repro.systems import malbec_mini, slingshot_config
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


def _rung_live(sim):
    """True while *sim* holds an untaken rung bucket (never for the heap)."""
    return sim._horizon < sim._rung_end


def _drive(sim, ops, budget, preload=0):
    """Run *ops* against *sim*; return the dispatch log [(now, tag)] and
    whether a handler ever ran while a rung was live.

    Pre-schedules *preload* entries at seeded times (enough of them make
    the first refill spread the far list into a rung), then one entry
    per op, then lets handlers schedule, cancel, and re-arm timers
    mid-run from a seeded RNG.  Both queue kinds see the same op list and
    the same RNG seed, so as long as dispatch stays identical the two
    runs make identical draws — the assertion below verifies exactly
    that.
    """
    rng = random.Random(20_260_808)
    log = []
    handles = []
    fuel = [budget]
    rung_seen = [False]

    def fire(tag):
        log.append((sim.now, tag))
        rung_seen[0] = rung_seen[0] or _rung_live(sim)
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
    return log, rung_seen[0]


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, len(_DELAYS) - 1)),
        min_size=1,
        max_size=40,
    ),
    budget=st.integers(0, 400),
    preload=st.integers(0, 8 * _REFILL_TARGET),
)
def test_random_interleavings_dispatch_identically(ops, budget, preload):
    log_cal, rung_seen = _drive(Simulator(), ops, budget, preload)
    log_heap, _ = _drive(HeapSimulator(), ops, budget, preload)
    assert log_cal == log_heap
    if preload >= 2 * _REFILL_TARGET:
        # the first refill spread the pre-load into a rung, and the
        # handlers' pushes met it
        assert rung_seen


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


def _preloaded_log(sim, times):
    log = []
    for i, t in enumerate(times):
        sim.schedule(t, log.append, (t, i))
    sim.run()
    assert sim.events_processed == len(times)
    return log


def _bucket_edge(t0, inv, i):
    """Smallest float whose rung bucket index ``int((t - t0) * inv)``
    reaches *i*, by walking up one ulp at a time from below."""
    t = t0 + i / inv
    for _ in range(8):
        t = nextafter(t, -inf)
    assert int((t - t0) * inv) < i
    while int((t - t0) * inv) < i:
        t = nextafter(t, inf)
    return t


def _off_edge_spread(n_buckets):
    """Evenly spaced pre-load times whose spread has a bucket edge that
    the uncorrected ``t0 + i / inv`` misses by at least one ulp.

    Returns ``(times, i, edge, rung_end)`` for a spread of
    ``len(times) // _REFILL_TARGET == n_buckets`` buckets.
    """
    n = n_buckets * _REFILL_TARGET
    for k in range(1, 100):
        t0 = 1_000.0 + k * 0.1
        times = [t0 + j * (333.3 / n) for j in range(n)]
        inv = n_buckets / (max(times) - t0)
        for i in range(2, n_buckets):
            edge = _bucket_edge(t0, inv, i)
            if t0 + i / inv != edge:
                return times, i, edge, _bucket_edge(t0, inv, n_buckets + 1)
    raise AssertionError("no spread with an off-by-an-ulp bucket edge")


def test_refill_boundary_regimes():
    """Force each refill path: take-all for a short or one-timestamp far
    list, spreads into rung buckets, pushes made mid-run into untaken
    buckets and at or past the rung's end, and entries on an exact
    bucket edge and one ulp either side of it."""
    for n, times in (
        # a spread into 3 buckets, ties on every timestamp
        (3 * _REFILL_TARGET, lambda i: float(i % 97) * 1_000.0),
        # a spread into 40 buckets, ties and sub-ns fractions
        (40 * _REFILL_TARGET, lambda i: float((i * 7_919) % 1_009) * 0.37),
        # everything at one timestamp -> too narrow to spread, take-all
        (2 * _REFILL_TARGET, lambda i: 42.0),
        # tiny far list -> plain take-all
        (17, lambda i: float(i)),
    ):
        ts = [times(i) for i in range(n)]
        assert _preloaded_log(Simulator(), ts) == _preloaded_log(
            HeapSimulator(), ts
        )

    # 8 buckets; bucket i's lower edge is one where the uncorrected
    # t0 + i / inv is off by an ulp.  A trigger in bucket i - 1 runs while
    # the horizon sits on that edge and pushes entries onto it, one ulp
    # either side of it, into an untaken bucket, and at and past the
    # rung's end.  Bucket i already holds earlier-seq ties at those times.
    base, i, edge, rung_end = _off_edge_spread(8)
    below, above = nextafter(edge, -inf), nextafter(edge, inf)
    mid_run = (
        below,
        edge,
        above,
        edge + 1.5 * (edge - base[0]) / i,  # mid-bucket i + 1
        nextafter(rung_end, -inf),
        rung_end,
        nextafter(rung_end, inf),
        rung_end + 1_000.0,
    )
    trigger = nextafter(below, -inf)

    def run(sim):
        log = []

        def fire(tag):
            log.append((sim.now, tag))
            if tag == "trigger":
                if type(sim) is Simulator:
                    assert sim._horizon == edge and sim._rung_end == rung_end
                for k, t in enumerate(mid_run):
                    sim.push(t, fire, (("mid", k),))

        for k, t in enumerate(base + [below, edge, above, edge]):
            sim.schedule(t, fire, k)
        sim.schedule(trigger, fire, "trigger")
        sim.run()
        return log

    log_cal = run(Simulator())
    assert log_cal == run(HeapSimulator())
    assert len(log_cal) == len(base) + 5 + len(mid_run)


def test_compaction_with_dead_timers_in_rung_buckets():
    """A cancel storm compacts the queue while most of the dead timers
    sit in untaken rung buckets.  The entry counts must match the heap's
    after every cancel and at every later dispatch."""

    def run(sim):
        log = []
        timers = []

        def fire(tag):
            log.append((sim.now, tag, sim.queue_length, sim.live_queue_length))

        def storm():
            if type(sim) is Simulator:
                assert _rung_live(sim) and sim._rung_n > 4 * _REFILL_TARGET
            for k, h in enumerate(timers):
                if k % 5:
                    h.cancel()
                log.append((sim.queue_length, sim.live_queue_length))
            assert sim._dead < len(timers) // 2  # compacted at least once

        sim.schedule(1_000.0, storm)
        for i in range(6 * _REFILL_TARGET):
            t = 1_000.5 + (i * 7_919) % 1_000
            timers.append(sim.schedule_cancellable(t, fire, i))
        sim.run()
        return log

    assert run(Simulator()) == run(HeapSimulator())


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


def test_queue_matches_heap_on_a_bisection_that_spreads_many_times():
    """The 80-node bisection at 256 KiB per node spreads its far list
    into a fresh rung over a dozen times, with the fabric pushing into
    untaken buckets all along; every dispatched event must match."""

    def run(sim):
        fabric = malbec_mini().build(sim=sim)
        trace = EventTrace()
        rungs = set()

        def hook(t, fn, args):
            trace(t, fn, args)
            if _rung_live(sim):
                rungs.add(sim._rung_end)

        sim.event_hook = hook
        n = fabric.topology.n_nodes
        for i in range(n):
            fabric.send(i, (i + n // 2) % n, 256 * KiB)
        sim.run()
        return (fabric, trace), len(rungs)

    cal, spreads = run(Simulator())
    heap, _ = run(HeapSimulator())
    assert spreads >= 10
    _assert_same_dispatch(cal, heap)


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
