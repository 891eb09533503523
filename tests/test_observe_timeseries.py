"""Windowed time-series engine: mechanics, track list, parallel cells.

The engine is the one sampler over a telemetry registry (``repro
observe`` and ``repro trace`` both run it), so these tests pin what both
read from it: contiguous windows, exact deltas, level sketches, the one
track list, and windows that come back whole from a sweep worker.
"""

import math
import random

from repro.network.units import KiB
from repro.observe import CUMULATIVE_SUFFIXES
from repro.parallel import run_cells
from repro.systems import malbec_mini


def _run_with_engine(window_ns=5_000.0, n_messages=40, seed=7, **engine_kw):
    fabric = malbec_mini().build()
    obs = fabric.attach_observer(window_ns=window_ns, **engine_kw)
    rng = random.Random(seed)
    n = fabric.topology.n_nodes
    sent = 0
    while sent < n_messages:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            fabric.send(a, b, rng.choice([8, 4 * KiB, 64 * KiB]))
            sent += 1
    fabric.sim.run()
    obs.stop()
    return fabric, obs


# -- engine mechanics ---------------------------------------------------------


def test_windows_cover_the_run_contiguously():
    fabric, obs = _run_with_engine()
    ws = list(obs.windows)
    assert len(ws) >= 2
    assert ws[0].t0 == 0.0
    for a, b in zip(ws, ws[1:]):
        assert a.t1 == b.t0  # no gaps, no overlap
    assert ws[-1].t1 == fabric.sim.now  # stop() sealed the partial window


def test_window_deltas_sum_to_final_totals():
    fabric, obs = _run_with_engine()
    # windows partition the run, so per-window deltas of any cumulative
    # metric must sum to its final value (it started at zero)
    total_tx = sum(
        w.deltas.get("nic.0.rx_pkts", 0.0) for w in obs.windows
    )
    assert total_tx == float(fabric.nics[0].pkts_delivered)
    delivered = sum(
        sum(v for k, v in w.deltas.items()
            if k.startswith("nic.") and k.endswith(".rx_pkts"))
        for w in obs.windows
    )
    assert delivered == float(fabric.packets_delivered())


def test_levels_and_rates_are_sane():
    fabric, obs = _run_with_engine()
    # every window rates a busy injection port consistently with its delta
    name = "nic.0.port.I0->0.tx_bytes"
    for w in obs.windows:
        assert w.rate(name) >= 0.0
        assert math.isclose(w.rate(name) * w.width, w.deltas[name])
    # level gauges (voq_depth) were sampled and answer summaries
    sampled = [w for w in obs.windows
               for agg in [w.levels.get("sim.queue_depth")] if agg and agg.n]
    assert sampled
    agg = next(iter(sampled)).levels["sim.queue_depth"]
    s = agg.summary()
    assert s["min"] <= s["p50"] <= s["max"]


def test_ring_capacity_bounds_memory():
    _, obs = _run_with_engine(window_ns=500.0, max_windows=4)
    assert len(obs.windows) == 4  # older windows fell off the front


def test_engine_never_keeps_a_finished_run_alive():
    fabric = malbec_mini().build()
    obs = fabric.attach_observer(window_ns=1_000.0)
    fabric.send(0, 5, 4 * KiB)
    fabric.sim.run()  # must terminate even though the engine re-arms
    obs.stop()
    assert fabric.sim.queue_length == 0


def test_counter_tracks_emit_rates_and_utils():
    _, obs = _run_with_engine()
    tracks = dict(obs.engine.counter_tracks())
    names = list(tracks)
    assert names == sorted(names)  # one list, in name order
    rate_tracks = [n for n in tracks if n.endswith(".rate")]
    util_tracks = [n for n in tracks if n.endswith(".util")]
    assert "nic.0.port.I0->0.tx_bytes.rate" in rate_tracks
    assert "nic.0.port.I0->0.util" in util_tracks
    for name in rate_tracks + util_tracks:
        points = tracks[name]
        assert [t for t, _ in points] == [w.t1 for w in obs.windows]
        assert all(v >= 0.0 for _, v in points)
    # a level gauge is its own track: the window's mean sample
    depth = tracks["sim.queue_depth"]
    assert depth == [(w.t1, w.levels["sim.queue_depth"].mean())
                     for w in obs.windows if "sim.queue_depth" in w.levels]


def test_credited_bytes_is_a_level_not_a_counter():
    """A port's credited_bytes is the downstream buffer's occupancy:
    sampled as a level, never differenced as if it were a total."""
    fabric = malbec_mini().build()
    obs = fabric.attach_observer(window_ns=5_000.0)
    for src in range(1, 40):
        fabric.send(src, 0, 64 * KiB)
    fabric.sim.run()
    obs.stop()
    names = [n for n in obs.registry.names() if n.endswith(".credited_bytes")]
    assert names
    peak = 0.0
    for w in obs.windows:
        for name in names:
            assert name in w.levels and name not in w.deltas
            peak = max(peak, w.levels[name].vmax)
    assert peak > 0.0
    assert ".credited_bytes" not in CUMULATIVE_SUFFIXES


# -- serial == parallel (the repro.parallel contract) -------------------------


def _cell_worker(cell):
    """Module-level (picklable) sweep cell: its own fabric + engine."""
    seed, n_messages = cell
    _, obs = _run_with_engine(window_ns=5_000.0, n_messages=n_messages,
                              seed=seed)
    return list(obs.windows)


def _fingerprint_series(series):
    out = []
    for w in series:
        deltas = tuple(sorted((k, v) for k, v in w.deltas.items() if v))
        # events_per_wall_s is wall-clock derived — the one legitimately
        # nondeterministic gauge; everything else must match exactly
        levels = tuple(sorted(
            (k, agg.n, agg.total, agg.vmin, agg.vmax)
            for k, agg in w.levels.items()
            if agg.n and "per_wall" not in k
        ))
        out.append((w.t0, w.t1, deltas, levels))
    return out


def test_parallel_cells_match_the_serial_result():
    cells = [(11, 20), (22, 20), (33, 20)]
    serial = run_cells(_cell_worker, cells, jobs=1)
    parallel = run_cells(_cell_worker, cells, jobs=2)
    # identical per-cell series regardless of execution mode
    for s, p in zip(serial, parallel):
        assert _fingerprint_series(s) == _fingerprint_series(p)
    # and each cell's windows account for all of its traffic
    for series in serial:
        total = sum(w.deltas.get("fabric.messages_completed", 0.0)
                    for w in series)
        assert total == 20.0
