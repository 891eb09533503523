"""Property: fast delivery path == reference delivery path, event for event.

The allocation-free NIC/port delivery path inlines scheduling, caches
effective windows, reads the probe and retransmission slots into
locals, and gives each port one send body with an inlined credit check
and head-gated wakeups.  None of that may be *observable*: across
random topologies, seeds, traffic, congestion-control strategies,
traffic-class mixes (priorities, guarantees, rate caps), LLR error
rates, telemetry probes and generated fault schedules (which exercise
retransmission, hook attachment, and the degraded-port paths), the
entire simulated event stream must be identical to the straight-line
reference implementation (``ReferenceNIC``/``ReferenceOutputPort`` from
``tests/oracles/delivery.py``, patched into the fabric builder by
``reference_delivery()``).  The
reference port has its own send body, so every regime compares two
implementations.  The comparison reuses the determinism differ's
:class:`~repro.validate.differ.EventTrace` (pid/mid-normalized labels),
so any divergence reports the exact first event where the two
implementations disagreed; telemetry span lists and per-port LLR replay
counts are compared too.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.traffic_classes import TrafficClass
from repro.faults import FaultSchedule
from repro.network.dragonfly import DragonflyParams
from repro.network.units import KiB, MS
from repro.systems import aries_config, slingshot_config
from repro.validate.differ import EventTrace
from tests.oracles.delivery import reference_delivery


def _norm_spans(events):
    """Telemetry span dicts with pid and mid renumbered by first
    appearance (both are process-global counters)."""
    pids, mids = {}, {}
    out = []
    for event in events:
        event = dict(event, pid=pids.setdefault(event["pid"], len(pids)))
        if "mid" in event:
            event["mid"] = mids.setdefault(event["mid"], len(mids))
        out.append(event)
    return out


def _run_traced(
    cfg, seed, schedule_of=None, traffic=None, until=None, sample_rate=None
):
    """Build, inject deterministic random traffic, run under an EventTrace
    (until the queue drains, or to simulated time *until*); with a
    *sample_rate*, telemetry spans are recorded too."""
    fabric = cfg.build()
    if schedule_of is not None:
        fabric.attach_faults(
            schedule_of(fabric), base_rto_ns=100_000.0, max_rto_ns=400_000.0
        )
    telem = None
    if sample_rate is not None:
        telem = fabric.attach_telemetry(sample_rate=sample_rate)
    trace = EventTrace()
    fabric.sim.event_hook = trace
    if traffic is not None:
        traffic(fabric)
    else:
        rng = random.Random(seed)
        nn = fabric.topology.n_nodes
        sent = 0
        while sent < 12:
            src, dst = rng.randrange(nn), rng.randrange(nn)
            if src == dst:
                continue
            fabric.send(src, dst, rng.choice([8, 4_000, 24_000]))
            sent += 1
    fabric.sim.run(until)
    spans = None if telem is None else _norm_spans(telem.spans.events)
    return fabric, trace, spans


def _norm(event):
    """Erase the only permitted difference: the implementing class name.

    ``ReferenceNIC``/``ReferenceOutputPort`` override methods, so the
    trace label's ``__qualname__`` prefix names the subclass; everything
    else (timestamps, method, receiver, normalized arguments) must match
    exactly.
    """
    t, label = event
    return (
        t,
        label.replace("ReferenceOutputPort.", "OutputPort.").replace(
            "ReferenceNIC.", "NIC."
        ),
    )


def _assert_equivalent(
    cfg, seed, schedule_of=None, traffic=None, until=None, sample_rate=None
):
    """Run the fast and the reference path; return both fabrics."""
    args = (cfg, seed, schedule_of, traffic, until, sample_rate)
    fab_fast, trace_fast, spans_fast = _run_traced(*args)
    with reference_delivery():
        fab_ref, trace_ref, spans_ref = _run_traced(*args)
    # event-for-event identity (first mismatch pinpointed for debugging);
    # full-list equality over normalized labels subsumes the fingerprint
    n = min(len(trace_fast), len(trace_ref))
    for i in range(n):
        assert _norm(trace_fast.events[i]) == _norm(trace_ref.events[i]), (
            f"first divergence at event {i}: "
            f"fast={trace_fast.events[i]!r} ref={trace_ref.events[i]!r}"
        )
    assert len(trace_fast) == len(trace_ref)
    assert spans_fast == spans_ref
    # and the endpoints agree on every delivery statistic
    assert fab_fast.packets_delivered() == fab_ref.packets_delivered()
    assert fab_fast.packets_dropped() == fab_ref.packets_dropped()
    assert [port.replays for _, port in fab_fast.all_ports()] == [
        port.replays for _, port in fab_ref.all_ports()
    ]
    for nf, nr in zip(fab_fast.nics, fab_ref.nics):
        assert nf.pkts_injected == nr.pkts_injected
        assert nf.pkts_delivered == nr.pkts_delivered
        assert nf.acks_marked == nr.acks_marked
        assert nf.acks_clean == nr.acks_clean
        assert nf.blocked_pairs() == nr.blocked_pairs()
        for key, sf in nf.pairs.items():
            sr = nr.pairs[key]
            assert sf.window == sr.window, key
            assert sf.in_flight == sr.in_flight, key
            assert sf.pending_count == sr.pending_count, key
    return fab_fast, fab_ref


@settings(max_examples=8, deadline=None)
@given(
    p=st.integers(1, 2),
    a=st.integers(2, 3),
    g=st.integers(2, 4),
    links=st.integers(1, 2),
    seed=st.integers(0, 1_000),
)
def test_fast_path_matches_reference_healthy(p, a, g, links, seed):
    cfg = slingshot_config(
        DragonflyParams(p, a, g, links_per_pair=links), seed=seed
    )
    _assert_equivalent(cfg, seed)


@settings(max_examples=8, deadline=None)
@given(
    p=st.integers(1, 2),
    a=st.integers(2, 3),
    g=st.integers(2, 4),
    seed=st.integers(0, 1_000),
    n_faults=st.integers(1, 4),
)
def test_fast_path_matches_reference_under_faults(p, a, g, seed, n_faults):
    """Faults exercise retransmission, hook dispatch, and port fail/recover
    (which must turn a blocked port's gated wait ungated)."""
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

    _assert_equivalent(cfg, seed, schedule_of)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1_000))
def test_fast_path_matches_reference_ecn(seed):
    """EcnCC drives the slow-loop bookkeeping (acks/marks_since_update)."""
    cfg = slingshot_config(
        DragonflyParams(2, 3, 3, links_per_pair=1),
        seed=seed,
        cc="ecn",
        mark_threshold=8 * KiB,
    )
    _assert_equivalent(cfg, seed)


def _incast(fabric):
    """Everyone sends a burst to node 0: marks pile up and windows go
    fractional, exercising the paced (window < 1) pump branch."""
    nn = fabric.topology.n_nodes
    for src in range(1, nn):
        fabric.send(src, 0, 32 * KiB)
        fabric.send(src, 0, 32 * KiB)


def test_fast_path_matches_reference_incast_pacing():
    cfg = slingshot_config(
        DragonflyParams(2, 3, 3, links_per_pair=1),
        seed=7,
        mark_threshold=4 * KiB,
        cc_kwargs={"initial": 4.0, "min_window": 1.0 / 32.0},
    )
    _assert_equivalent(cfg, 7, traffic=_incast)


def _incast_and_random(seed):
    """The incast burst plus a dozen random messages crossing it."""

    def traffic(fabric):
        _incast(fabric)
        rng = random.Random(seed)
        nn = fabric.topology.n_nodes
        for _ in range(12):
            src, dst = rng.sample(range(nn), 2)
            fabric.send(src, dst, rng.choice([8, 4_000, 24_000]))

    return traffic


@settings(max_examples=10, deadline=None)
@given(
    p=st.integers(1, 4),
    a=st.integers(2, 4),
    g=st.integers(2, 3),
    links=st.integers(1, 4),
    buf_kib=st.integers(16, 64),
    seed=st.integers(0, 1_000),
    n_faults=st.integers(0, 3),
    error_rate=st.sampled_from((0.0, 0.02)),
)
@example(p=2, a=3, g=2, links=4, buf_kib=64, seed=11, n_faults=0, error_rate=0.0)
@example(p=2, a=3, g=2, links=4, buf_kib=64, seed=11, n_faults=0, error_rate=0.02)
def test_fast_path_matches_reference_aries_shared_buffers(
    p, a, g, links, buf_kib, seed, n_faults, error_rate
):
    """NoCC + switch-shared pools, healthy and faulted, with and without
    LLR: the production port's gated credit wakeups (a release skips a
    waiter whose head it cannot fit; LLR ports wait gated too) against
    the reference's wake-every-waiter, plus the infinite-window pump
    branch and the shared-buffer accounting.

    About 1% of faulted examples end in the per-class FIFO credit
    deadlock (a VC-1 head blocks the VC-2 packets behind it) and then
    retransmit forever, so both sides stop at 20 ms: 24x the latest
    drain seen over 3,000 generated examples (0.82 ms)."""
    base = aries_config(
        DragonflyParams(p, a, g, links_per_pair=links),
        seed=seed,
        switch_buffer_bytes=buf_kib * KiB,
    )
    cfg = base.with_(**{
        kind: replace(getattr(base, kind), frame_error_rate=error_rate)
        for kind in ("host_link", "local_link", "global_link")
    })
    schedule_of = None
    if n_faults:

        def schedule_of(fabric):
            return FaultSchedule.generate(
                fabric,
                seed=seed,
                n_faults=n_faults,
                t_start=5_000.0,
                t_end=400_000.0,
                switch_faults=seed % 2,
            )

    _assert_equivalent(
        cfg, seed, schedule_of, traffic=_incast_and_random(seed), until=20 * MS
    )


def _stalls_with_late_telemetry(cfg, t_attach):
    """Run the incast, attach telemetry at *t_attach* (while ports sit
    blocked on shared pools), and return the event trace and every
    port's ``(credit_stalls, credit_stall_ns)``."""
    fabric = cfg.build()
    trace = EventTrace()
    fabric.sim.event_hook = trace
    _incast(fabric)
    fabric.sim.run(until=t_attach)
    telem = fabric.attach_telemetry(sample_rate=0.0)
    fabric.sim.run()
    snap = telem.registry.snapshot()
    stalls = {
        name: (value, snap[name.replace(".credit_stalls", ".credit_stall_ns")])
        for name, value in snap.items()
        if name.endswith(".credit_stalls")
    }
    return trace, stalls


@pytest.mark.parametrize("t_attach", [5_000.0, 20_000.0])
def test_telemetry_attached_mid_stall_counts_like_reference(t_attach):
    """A gated waiter whose port gains a stall-recording probe while
    blocked must go back to waking on every release: the reference's
    wasted wakeups close and reopen the stall span, so skipping them
    would change every port's stall count and time while leaving the
    event stream intact."""
    cfg = aries_config(
        DragonflyParams(4, 4, 2, links_per_pair=4),
        seed=3,
        switch_buffer_bytes=32 * KiB,
    )
    trace_fast, stalls_fast = _stalls_with_late_telemetry(cfg, t_attach)
    with reference_delivery():
        trace_ref, stalls_ref = _stalls_with_late_telemetry(cfg, t_attach)
    assert [_norm(e) for e in trace_fast.events] == [
        _norm(e) for e in trace_ref.events
    ]
    assert sum(n for n, _ in stalls_ref.values()) > 0
    assert stalls_fast == stalls_ref


#: class mixes that take every port off the single-class branch
_CLASS_MIXES = {
    "priority+cap": [
        TrafficClass("urgent", priority=1, max_share=0.5),
        TrafficClass("bulk"),
    ],
    "three guarantees": [
        TrafficClass("gold", min_share=0.5),
        TrafficClass("silver", min_share=0.3),
        TrafficClass("bronze", min_share=0.1),
    ],
    "cap+guarantee": [
        TrafficClass("capped", max_share=0.3),
        TrafficClass("guaranteed", min_share=0.6),
    ],
}


def _mixed_tc_incast(seed, n_classes):
    """An incast to node 0 plus a dozen random messages, each message on
    a random traffic class."""

    def traffic(fabric):
        rng = random.Random(seed)
        nn = fabric.topology.n_nodes
        for src in range(1, nn):
            fabric.send(src, 0, 16 * KiB, tc=rng.randrange(n_classes))
        for _ in range(12):
            src, dst = rng.sample(range(nn), 2)
            size = rng.choice([8, 4_000, 24_000])
            fabric.send(src, dst, size, tc=rng.randrange(n_classes))

    return traffic


@settings(max_examples=12, deadline=None)
@given(
    p=st.integers(1, 2),
    a=st.integers(2, 3),
    g=st.integers(2, 3),
    mix=st.sampled_from(sorted(_CLASS_MIXES)),
    error_rate=st.sampled_from([0.0, 0.02, 0.1]),
    telemetry=st.booleans(),
    n_faults=st.integers(0, 2),
    mark_kib=st.sampled_from([4, 24]),
    seed=st.integers(0, 1_000),
)
@example(
    p=2, a=3, g=3, mix="cap+guarantee", error_rate=0.0, telemetry=False,
    n_faults=0, mark_kib=24, seed=0,
)
@example(
    p=2, a=3, g=2, mix="three guarantees", error_rate=0.1, telemetry=True,
    n_faults=1, mark_kib=4, seed=3,
)
@example(
    p=2, a=2, g=3, mix="priority+cap", error_rate=0.02, telemetry=True,
    n_faults=0, mark_kib=4, seed=5,
)
@example(
    p=1, a=2, g=2, mix="priority+cap", error_rate=0.0, telemetry=False,
    n_faults=0, mark_kib=4, seed=2,
)
def test_fast_path_matches_reference_traffic_classes(
    p, a, g, mix, error_rate, telemetry, n_faults, mark_kib, seed
):
    """The regimes past the single-class branch: several classes (DRR,
    priorities, rate caps), LLR replays, probes that record marks and
    arbitration, and faults.  The reference port has its own send body,
    so this pins the scheduler branch, the mark/probe order and the
    replay loop, not just the plain path.  A run that drains must also
    leave nothing parked: a capped queue whose token-bucket wait rounded
    to zero used to wait forever on credits that never came."""
    base = slingshot_config(
        DragonflyParams(p, a, g, links_per_pair=2), seed=seed
    )
    classes = _CLASS_MIXES[mix]
    cfg = base.with_(
        classes=classes,
        mark_threshold=mark_kib * KiB,
        local_link=replace(base.local_link, frame_error_rate=error_rate),
        global_link=replace(base.global_link, frame_error_rate=error_rate),
    )
    schedule_of = None
    if n_faults:

        def schedule_of(fabric):
            return FaultSchedule.generate(
                fabric,
                seed=seed,
                n_faults=n_faults,
                t_start=5_000.0,
                t_end=400_000.0,
                switch_faults=seed % 2,
            )

    fabrics = _assert_equivalent(
        cfg,
        seed,
        schedule_of,
        traffic=_mixed_tc_incast(seed, len(classes)),
        until=20 * MS,
        sample_rate=1.0 if telemetry else None,
    )
    for fabric in fabrics:
        if fabric.sim.live_queue_length == 0:
            fabric.assert_quiescent()
