"""Tests for the unified telemetry subsystem (repro.telemetry)."""

import json
import math

import pytest

from repro.core.adaptive_routing import ValiantRouter
from repro.network.units import KiB
from repro.observe import TimeSeriesEngine
from repro.probe import records_stalls
from repro.sim import Simulator
from repro.systems import malbec_mini
from repro.telemetry import (
    FabricTelemetry,
    Histogram,
    SpanRecorder,
    TelemetryRegistry,
    chrome_trace,
    counters_to_csv,
    spans_to_jsonl,
    timeseries_to_csv,
)


# -- registry -----------------------------------------------------------------


def test_counter_and_gauge_basics():
    reg = TelemetryRegistry()
    c = reg.counter("nic.0.tx_bytes")
    c.inc(100)
    c.inc(50)
    assert reg.get("nic.0.tx_bytes").read() == 150
    g = reg.gauge("sim.queue_depth", fn=lambda: 7)
    assert g.read() == 7
    # create-or-get: same object back
    assert reg.counter("nic.0.tx_bytes") is c


def test_registry_kind_mismatch_raises():
    reg = TelemetryRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")


def test_registry_subtree():
    reg = TelemetryRegistry()
    reg.counter("switch.3.port.a.bytes")
    reg.counter("switch.3.port.b.bytes")
    reg.counter("switch.30.port.a.bytes")
    sub = reg.subtree("switch.3")
    assert set(sub) == {"switch.3.port.a.bytes", "switch.3.port.b.bytes"}


def test_registry_snapshot_evaluates_gauges():
    reg = TelemetryRegistry()
    level = {"v": 1.0}
    reg.gauge("g", fn=lambda: level["v"])
    assert reg.snapshot()["g"] == 1.0
    level["v"] = 9.0
    assert reg.snapshot()["g"] == 9.0


def test_histogram_log_bins_and_percentiles():
    h = Histogram("lat", lo=10.0, hi=1e6, bins_per_decade=8)
    for v in [15, 20, 30, 50, 100, 1000, 10_000, 250_000]:
        h.observe(v)
    s = h.summary()
    assert s["n"] == 8
    assert s["min"] == 15
    assert s["max"] == 250_000
    # percentiles are bin-approximate: right order of magnitude
    assert 10 < h.percentile(25) < 100
    assert 1_000 < h.percentile(90) < 1e6
    assert h.percentile(50) <= h.percentile(95) <= h.percentile(99)


def test_histogram_under_and_overflow():
    h = Histogram("x", lo=10.0, hi=100.0, bins_per_decade=4)
    h.observe(0.0)
    h.observe(5.0)
    h.observe(1e9)
    assert h.counts[0] == 2
    assert h.counts[-1] == 1
    assert h.n == 3
    assert math.isnan(Histogram("empty").percentile(50))


def test_histogram_percentile_single_sample_exact_for_all_q():
    # One observation: every percentile IS that observation.  The
    # pre-fix code returned a bin midpoint (off by up to half a bin) and
    # q=100 never reached the vmax clamp.
    h = Histogram("one", lo=10.0, hi=1e6, bins_per_decade=8)
    h.observe(137.0)
    for q in (0, 1, 25, 50, 75, 99, 100):
        assert h.percentile(q) == pytest.approx(137.0)


def test_histogram_percentile_extreme_q_clamps():
    h = Histogram("clamp", lo=10.0, hi=1e6, bins_per_decade=8)
    for v in [15.0, 200.0, 3000.0, 50_000.0]:
        h.observe(v)
    # q=0 must be the smallest observation even though the underflow
    # bin (counts[0]) is empty — the pre-fix cumulative walk skipped
    # empty bins with `if not c` *before* testing the target.
    assert h.percentile(0) == 15.0
    assert h.percentile(100) == 50_000.0
    assert h.percentile(-5) == 15.0  # clamped, not an error
    assert h.percentile(250) == 50_000.0


def test_histogram_percentile_cumulative_semantics():
    # 100 observations in one low bin, 1 in a high bin: p50 must come
    # from the crowded bin, p100 from the top one.
    h = Histogram("cum", lo=10.0, hi=1e6, bins_per_decade=8)
    for _ in range(100):
        h.observe(20.0)
    h.observe(100_000.0)
    assert h.percentile(50) == pytest.approx(20.0, rel=0.2)
    assert h.percentile(100) == 100_000.0
    assert h.percentile(50) <= h.percentile(99) <= h.percentile(100)


# -- spans --------------------------------------------------------------------


def test_span_sampling_is_deterministic_and_proportional():
    rec1 = SpanRecorder(sample_rate=0.25, seed=42)
    rec2 = SpanRecorder(sample_rate=0.25, seed=42)
    picks1 = [rec1.sample(pid) for pid in range(4000)]
    picks2 = [rec2.sample(pid) for pid in range(4000)]
    assert picks1 == picks2  # same seed -> same selection
    frac = sum(picks1) / len(picks1)
    assert 0.18 < frac < 0.32
    assert all(SpanRecorder(sample_rate=1.0).sample(p) for p in range(10))
    assert not any(SpanRecorder(sample_rate=0.0).sample(p) for p in range(10))


def test_span_recorder_caps_events():
    rec = SpanRecorder(max_events=3)
    for i in range(5):
        rec.record(float(i), i, "nic", "injected")
    assert len(rec) == 3
    assert rec.dropped == 2


def test_span_grouping_and_filters():
    rec = SpanRecorder()
    rec.record(1.0, 7, "nic", "injected", src=0, dst=1)
    rec.record(2.0, 7, "switch", "voq_enqueue", port="L0->1")
    rec.record(3.0, 8, "nic", "injected", src=2, dst=3)
    assert set(rec.by_packet()) == {7, 8}
    assert len(rec.packet_events(7)) == 2
    assert rec.layers() == ["nic", "switch"]
    assert len(rec.filter(layer="nic", ev="injected")) == 2


# -- the registry's time series ------------------------------------------------
#
# The sampler ``repro trace`` runs over its registry: a TimeSeriesEngine
# taking one sample per window and keeping every window.


def _sampler(sim, reg, interval_ns):
    return TimeSeriesEngine(sim, reg, window_ns=interval_ns,
                            samples_per_window=1, max_windows=None)


def test_scraper_samples_and_stops_with_queue():
    sim = Simulator()
    reg = TelemetryRegistry()
    c = reg.counter("work.done")

    def work(step):
        c.inc()
        if step < 10:
            sim.schedule(100.0, work, step + 1)

    sim.schedule(0.0, work, 0)
    sampler = _sampler(sim, reg, 250.0).start()
    sim.run()
    # the queue drained; the sampler must not have kept the sim alive
    assert sim.queue_length == 0
    assert [w.t1 for w in sampler.windows] == [250.0, 500.0, 750.0,
                                               1000.0, 1250.0]
    deltas = [w.deltas["work.done"] for w in sampler.windows]
    assert min(deltas) >= 0.0  # counters are monotonic
    assert sum(deltas) == 11.0  # the windows partition the run
    rates = dict(sampler.counter_tracks())["work.done.rate"]
    assert len(rates) == len(sampler)


def test_scraper_final_snapshot_on_stop():
    sim = Simulator()
    reg = TelemetryRegistry()
    c = reg.counter("x")
    level = reg.gauge("level")
    sampler = _sampler(sim, reg, 1000.0).start()
    sim.schedule(300.0, lambda: (c.inc(5), level.set(7.0)))
    sim.run(until=400.0)
    sampler.stop()  # seals the partial window [0, 400)
    assert [(w.t0, w.t1) for w in sampler.windows] == [(0.0, 400.0)]
    assert sampler.windows[0].deltas == {"x": 5.0}
    assert dict(sampler.counter_tracks())["level"] == [(400.0, 7.0)]


def test_scraper_backfills_late_metrics():
    sim = Simulator()
    reg = TelemetryRegistry()
    reg.counter("early")
    sampler = _sampler(sim, reg, 10.0).start()
    sim.schedule(5.0, lambda: None)
    sim.schedule(25.0, lambda: reg.counter("late").inc(3))
    sim.schedule(45.0, lambda: None)
    sim.run()
    sampler.stop()
    late = dict(sampler.counter_tracks())["late.rate"]
    # aligned with every window, zero before the metric existed
    assert [t for t, _ in late] == [w.t1 for w in sampler.windows]
    assert late[0][1] == 0.0
    growth = sum(r * w.width for (_, r), w in zip(late, sampler.windows))
    assert growth == pytest.approx(3.0)


# -- exporters ----------------------------------------------------------------


def test_jsonl_round_trip():
    rec = SpanRecorder()
    rec.record(1.5, 1, "nic", "injected", src=0, dst=5, window=16.0)
    rec.record(2.5, 1, "nic", "delivered", node=5)
    lines = spans_to_jsonl(rec).strip().splitlines()
    parsed = [json.loads(ln) for ln in lines]
    assert parsed[0]["ev"] == "injected"
    assert parsed[0]["window"] == 16.0
    assert parsed[1]["t"] == 2.5


def test_counters_csv_includes_histogram_summary():
    reg = TelemetryRegistry()
    reg.counter("a").inc(3)
    h = reg.histogram("lat")
    h.observe(100.0)
    csv_text = counters_to_csv(reg)
    assert "a,counter,3" in csv_text
    assert "lat.p50,histogram," in csv_text


def test_chrome_trace_structure():
    rec = SpanRecorder()
    rec.record(1000.0, 1, "nic", "injected", src=0, dst=5)
    rec.record(2000.0, 1, "switch", "voq_enqueue", port="L0->1")
    rec.record(5000.0, 1, "nic", "delivered", node=5)
    rec.record(1500.0, 1, "routing", "routed", nonmin=False)
    trace = chrome_trace(rec)
    evs = trace["traceEvents"]
    slices = [e for e in evs if e["ph"] == "X"]
    instants = [e for e in evs if e["ph"] == "i"]
    # two lifecycle slices: injected->voq_enqueue, voq_enqueue->delivered
    assert len(slices) == 2
    assert slices[0]["name"] == "injected"
    assert slices[0]["dur"] == pytest.approx(1.0)  # 1000 ns -> 1 us
    assert any(e["name"] == "routed" for e in instants)
    assert any(e["name"] == "delivered" for e in instants)
    json.dumps(trace)  # must be serializable


# -- fabric integration -------------------------------------------------------


@pytest.fixture
def traced_series():
    fabric = malbec_mini().build()
    telem = FabricTelemetry(fabric, sample_rate=1.0)
    sampler = _sampler(fabric.sim, telem.registry, 5000.0).start()
    # incast plus a cross-group flow: exercises VOQs, routing and CC
    for src in range(1, 9):
        fabric.send(src, 0, 64 * KiB)
    fabric.send(0, 79, 16 * KiB)
    fabric.sim.run()
    return fabric, telem, sampler


@pytest.fixture
def traced_run(traced_series):
    return traced_series[:2]


def test_fabric_spans_cover_all_layers(traced_run):
    fabric, telem = traced_run
    assert set(telem.spans.layers()) >= {"nic", "switch", "routing", "cc"}
    evs = {e["ev"] for e in telem.spans.events}
    assert {"injected", "voq_enqueue", "arbitrated", "wire_tx",
            "switch_rx", "routed", "cc_window", "delivered"} <= evs


def test_fabric_lifecycle_order(traced_run):
    fabric, telem = traced_run
    for pid, evs in telem.spans.by_packet().items():
        names = [e["ev"] for e in evs]
        assert names[0] == "injected"
        assert names[-1] in ("delivered", "cc_window")
        assert "delivered" in names
        # monotone timestamps
        ts = [e["t"] for e in evs]
        assert ts == sorted(ts)


@pytest.mark.parametrize("router", ["adaptive", "valiant"])
def test_every_switch_forward_is_one_routing_decision(router):
    """The final hop to the host port is a decision too, on every router."""
    cfg = malbec_mini()
    if router == "valiant":
        cfg = cfg.with_(router_factory=ValiantRouter)
    fabric = cfg.build()
    telem = fabric.attach_telemetry()
    n = fabric.topology.n_nodes
    for i in range(n):
        fabric.send(i, (i + n // 2) % n, 16 * KiB)
    fabric.sim.run()
    forwards = sum(sw.pkts_forwarded for sw in fabric.switches)
    assert forwards > fabric.packets_delivered()
    assert telem.registry.get("router.decisions").read() == forwards


def test_fabric_counters_and_gauges(traced_run):
    fabric, telem = traced_run
    snap = telem.registry.snapshot()
    assert snap["router.decisions"] > 0
    assert snap["cc.acks"] > 0
    assert snap["sim.events_processed"] == fabric.sim.events_processed
    # gauge totals match the components they mirror
    tx = sum(v for k, v in snap.items()
             if k.startswith("nic.") and k.endswith(".tx_bytes")
             and k.count(".") == 2)  # nic.N.tx_bytes, not nic.N.port.*
    assert tx == sum(n.bytes_injected for n in fabric.nics)
    lat = telem.registry.get("fabric.pkt_latency_ns")
    assert lat.n == fabric.packets_delivered()


def test_fabric_scraper_produced_series(traced_series):
    fabric, telem, sampler = traced_series
    sampler.stop()
    assert len(sampler) >= 2
    # the per-window event rates add up to the final events_processed
    rates = dict(sampler.counter_tracks())["sim.events_processed.rate"]
    growth = sum(r * w.width for (_, r), w in zip(rates, sampler.windows))
    assert growth == pytest.approx(fabric.sim.events_processed)


def test_fabric_export_writes_artifacts(tmp_path, traced_series):
    fabric, telem, sampler = traced_series
    sampler.stop()
    paths = telem.export(str(tmp_path), windows=sampler)
    trace = json.load(open(paths["chrome_trace"]))
    assert len(trace["traceEvents"]) > 100
    with open(paths["jsonl"]) as fh:
        layers = {json.loads(ln)["layer"] for ln in fh}
    assert {"nic", "switch", "routing", "cc"} <= layers
    assert "name,kind,value" in open(paths["counters_csv"]).read()
    assert "t_ns,name,value" in open(paths["timeseries_csv"]).read()


def test_detach_restores_zero_overhead(traced_run):
    fabric, telem = traced_run
    # telemetry records credit stalls on every port, so blocked ports
    # wait ungated while it is attached
    assert all(records_stalls(port.probe) for _, port in fabric.all_ports())
    telem.detach()
    assert all(c.probe is None for c in fabric.probe_points())
    n_before = len(telem.spans)
    fabric.send(0, 40, 4 * KiB)
    fabric.sim.run()
    assert len(telem.spans) == n_before  # nothing recorded after detach


def test_telemetry_context_manager():
    fabric = malbec_mini().build()
    with FabricTelemetry(fabric) as telem:
        fabric.send(0, 40, KiB)
        fabric.sim.run()
        assert len(telem.spans) > 0
    assert fabric.router.probe is None


def test_sampling_reduces_span_volume():
    fabric = malbec_mini().build()
    telem = FabricTelemetry(fabric, sample_rate=0.0)
    for src in range(1, 9):
        fabric.send(src, 0, 64 * KiB)
    fabric.sim.run()
    assert len(telem.spans) == 0
    # counters still work with sampling off
    assert telem.registry.get("router.decisions").read() > 0


def test_cli_trace_subcommand(tmp_path):
    from repro.cli import main

    out = tmp_path / "cap"
    rc = main([
        "trace", "--system", "malbec", "--messages", "10",
        "--pattern", "random", "--out", str(out),
    ])
    assert rc == 0
    trace = json.load(open(out / "trace.json"))
    assert trace["traceEvents"]
    with open(out / "trace.jsonl") as fh:
        layers = {json.loads(ln)["layer"] for ln in fh}
    assert {"nic", "switch", "routing"} <= layers


def test_cli_latency_rejects_too_many_ranks():
    from repro.cli import main

    with pytest.raises(SystemExit, match="exceeds"):
        main(["latency", "--system", "malbec", "--ranks", "5000"])
    with pytest.raises(SystemExit, match="at least 2"):
        main(["latency", "--system", "malbec", "--ranks", "1"])


def test_fabric_attach_telemetry_convenience():
    fabric = malbec_mini().build()
    telem = fabric.attach_telemetry(sample_rate=1.0)
    fabric.send(0, 40, KiB)
    fabric.sim.run()
    assert isinstance(telem, FabricTelemetry)
    snap = telem.registry.snapshot()
    assert snap["fabric.messages_sent"] == 1
    assert snap["fabric.messages_completed"] == 1
    telem.detach()
