"""Sampler edge cases + chrome-trace counter tracks.

The registry's time series comes from one sampler, a
:class:`~repro.observe.TimeSeriesEngine` (``repro trace`` runs it with
one sample per window).  Degenerate inputs give empty results, never
exceptions or partial rows, and the exporters render the engine's one
track list as CSV rows and Chrome counter tracks.
"""

import json

import pytest

from repro.network.units import KiB
from repro.observe import TimeSeriesEngine
from repro.sim.engine import Simulator
from repro.systems import malbec_mini
from repro.telemetry import TelemetryRegistry
from repro.telemetry.exporters import chrome_trace, timeseries_to_csv


def _sampler(interval=100.0):
    sim = Simulator()
    reg = TelemetryRegistry()
    eng = TimeSeriesEngine(sim, reg, window_ns=interval,
                           samples_per_window=1, max_windows=None)
    return sim, reg, eng


# -- rates ----------------------------------------------------------------------


def test_rate_on_unknown_name_is_empty():
    sim, reg, s = _sampler()
    reg.counter("x").inc(1)
    s.start()
    sim.schedule(150.0, lambda: None)
    sim.run()
    assert len(s) == 2
    assert "no.such.metric.rate" not in dict(s.counter_tracks())
    assert all(w.rate("no.such.metric") == 0.0 for w in s.windows)


def test_rate_with_zero_or_one_snapshot_is_empty():
    sim, reg, s = _sampler()
    c = reg.counter("x")
    assert s.counter_tracks() == []  # never started: no windows at all
    c.inc(5)
    s.start()
    s.stop()  # one snapshot at t=0 bounds no interval
    assert len(s) == 0
    assert s.counter_tracks() == []
    assert timeseries_to_csv(s) == "t_ns,name,value\n"


def test_rate_of_late_registered_metric_covers_only_its_snapshots():
    sim, reg, s = _sampler(interval=100.0)
    a = reg.counter("a")
    s.start()
    # keep the sim alive across several ticks
    for t in (50.0, 150.0, 250.0, 350.0):
        sim.schedule(t, lambda: None)
    sim.run(until=220.0)
    a.inc(10)
    late = reg.counter("late")  # appears after two windows exist
    late.inc(42)
    sim.run()
    s.stop()
    rates = dict(s.counter_tracks())["late.rate"]
    # aligned with every window: zero before it existed, all of its
    # growth in the window it appeared in
    assert [t for t, _ in rates] == [w.t1 for w in s.windows]
    assert [r for _, r in rates[:2]] == [0.0, 0.0]
    assert rates[2][1] * s.windows[2].width == pytest.approx(42.0)
    assert all(r >= 0.0 for _, r in rates)


def test_rate_handles_duplicate_time_guard():
    sim, reg, s = _sampler()
    reg.counter("x").inc(1)
    s.start()
    sim.schedule(10.0, lambda: None)
    sim.run(until=50.0)
    s.stop()
    s.stop()  # second stop at the same instant: no duplicate window
    assert [(w.t0, w.t1) for w in s.windows] == [(0.0, 50.0)]


# -- rows / CSV -----------------------------------------------------------------


def test_rows_empty_registry_and_csv_header_only():
    sim, _, s = _sampler()
    s.start()
    sim.schedule(250.0, lambda: None)
    sim.run()
    assert len(s) == 3  # windows, but nothing to sample in them
    assert s.counter_tracks() == []
    assert timeseries_to_csv(s) == "t_ns,name,value\n"


def test_rows_truncate_misaligned_columns():
    sim, reg, s = _sampler()
    s.start()
    reg.counter("x").inc(3)
    sim.schedule(150.0, lambda: reg.gauge("depth").set(4.0))
    sim.schedule(250.0, lambda: None)
    sim.run()
    # a gauge registered mid-run has rows only for the windows it was
    # sampled in: no padded or ragged row
    rows = timeseries_to_csv(s).splitlines()
    assert rows == [
        "t_ns,name,value",
        "200,depth,4",
        "300,depth,4",
        "100,x.rate,0.03",
        "200,x.rate,0",
        "300,x.rate,0",
    ]


# -- chrome-trace counter tracks ------------------------------------------------


def test_chrome_trace_emits_windowed_counter_tracks():
    fabric = malbec_mini().build()
    obs = fabric.attach_observer(window_ns=5_000.0)
    for i in range(10):
        fabric.send(i, i + 40, 16 * KiB)
    fabric.sim.run()
    obs.stop()
    trace = chrome_trace(spans=obs.spans, windows=obs.engine)
    json.dumps(trace)  # must be serializable as-is
    counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    names = {e["name"] for e in counters}
    assert names == {name for name, _ in obs.engine.counter_tracks()}
    assert "nic.0.port.I0->0.tx_bytes.rate" in names
    assert "nic.0.port.I0->0.util" in names
    assert "nic.0.port.I0->0.voq_depth" in names  # a level, by its name
    # timestamps are microseconds: all within the run's span
    assert all(0 <= e["ts"] <= fabric.sim.now / 1e3 for e in counters)
    # packet slices still present alongside the counter tracks
    assert any(e.get("ph") == "X" for e in trace["traceEvents"])


def test_chrome_trace_without_windows_unchanged():
    fabric = malbec_mini().build()
    obs = fabric.attach_observer(window_ns=5_000.0)
    fabric.send(0, 41, 8 * KiB)
    fabric.sim.run()
    obs.stop()
    trace = chrome_trace(spans=obs.spans)
    assert not [e for e in trace["traceEvents"] if e.get("ph") == "C"]
