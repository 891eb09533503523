"""Telemetry's disabled path must be invisible to the simulation.

The acceptance bar: with no :class:`FabricTelemetry` attached, a run is
*bit-identical* to the seed behaviour — same event count, same message
latencies — even though every hot path now carries a telemetry hook.
And because span recording schedules no events, even an *attached*
telemetry (without a time-series sampler) must leave the event count and
all latencies unchanged.
"""

import random

from repro.network.units import KiB
from repro.observe import TimeSeriesEngine
from repro.systems import malbec_mini
from repro.telemetry import FabricTelemetry


def _workload(fabric, n_messages=40, seed=7):
    """Deterministic mixed traffic; returns completed messages in order."""
    rng = random.Random(seed)
    n = fabric.topology.n_nodes
    msgs = []
    sent = 0
    while sent < n_messages:
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        msgs.append(fabric.send(a, b, rng.choice([8, 4 * KiB, 64 * KiB])))
        sent += 1
    fabric.sim.run()
    return msgs


def _fingerprint(fabric, msgs):
    return {
        "events": fabric.sim.events_processed,
        "now": fabric.sim.now,
        "latencies": [(m.submit_time, m.complete_time) for m in msgs],
        "delivered": fabric.packets_delivered(),
        "marks": sum(p.marks_set for sw in fabric.switches
                     for p in sw.all_ports()),
    }


def test_unattached_run_is_bit_identical():
    # Baseline fabric: telemetry package imported (top of file) but never
    # attached — the single-attribute-check path everywhere.
    plain = malbec_mini().build()
    base = _fingerprint(plain, _workload(plain))

    again = malbec_mini().build()
    msgs = _workload(again)
    assert _fingerprint(again, msgs) == base


def test_attached_spans_do_not_perturb_the_simulation():
    plain = malbec_mini().build()
    base = _fingerprint(plain, _workload(plain))

    traced = malbec_mini().build()
    telem = FabricTelemetry(traced, sample_rate=1.0)  # no sampler
    msgs = _workload(traced)
    assert len(telem.spans) > 0
    # identical events, times, latencies: observation changed nothing
    assert _fingerprint(traced, msgs) == base


def test_scraper_only_adds_events_never_changes_latencies():
    plain = malbec_mini().build()
    base = _fingerprint(plain, _workload(plain))

    sampled = malbec_mini().build()
    telem = FabricTelemetry(sampled, sample_rate=0.5)
    # the sampler `repro trace` runs: one sample per window
    sampler = TimeSeriesEngine(sampled.sim, telem.registry, window_ns=10_000.0,
                               samples_per_window=1, max_windows=None).start()
    msgs = _workload(sampled)
    got = _fingerprint(sampled, msgs)
    assert got["latencies"] == base["latencies"]
    assert got["delivered"] == base["delivered"]
    assert got["marks"] == base["marks"]
    # the sampler's own ticks are the only extra events (no stop() was
    # called, so every window was sealed by exactly one tick event)
    extra = got["events"] - base["events"]
    assert extra == len(sampler) > 0


def test_detached_fabric_runs_bit_identical():
    plain = malbec_mini().build()
    base = _fingerprint(plain, _workload(plain))

    cycled = malbec_mini().build()
    FabricTelemetry(cycled).detach()  # attach then immediately remove
    msgs = _workload(cycled)
    assert _fingerprint(cycled, msgs) == base
