"""Figure 9: the congestion-impact heatmap, Aries vs Slingshot.

Paper (512 nodes, linear allocation, 1 PPN): Aries victims suffer up to
93x under incast, growing with the aggressor's node share; Slingshot's
worst cell is 1.3x; the all-to-all aggressor is absorbed by adaptive
routing on both networks; applications suffer less than microbenchmarks
because compute phases dilute the damage.

Bench scale: the mini systems (same group structure), a trimmed victim
column set (one small + one large size per microbenchmark), and 64
booked nodes.  Shapes — who wins, direction of growth, which aggressor
matters — are asserted; magnitudes are reported for EXPERIMENTS.md.
"""

import numpy as np

from conftest import get_systems, run_once, save_result
from repro.analysis import render_heatmap
from repro.sweeps import app_victims, micro_victims, run_heatmap

NODES = list(range(64))


def _run_for(config):
    victims = {**app_victims(), **micro_victims()}
    return run_heatmap(config, victims, NODES, policy="linear", jobs=None)


def test_fig09_heatmap_aries(benchmark, report):
    crystal, _, _ = get_systems()
    rows, cols, values = run_once(benchmark, lambda: _run_for(crystal()))
    table = render_heatmap(
        rows, cols, values, title="Fig. 9 (top) — Aries congestion impact, linear"
    )
    report(table)
    save_result("fig09_aries", table)

    arr = np.array(values)
    a2a, incast = arr[:3], arr[3:]
    # Incast is the damaging pattern on Aries (order of magnitude), and
    # grows with the aggressor share.
    assert incast.max() > 10.0
    assert incast[2].max() >= incast[0].max() * 0.5  # 90% row is severe
    # The all-to-all aggressor is absorbed by adaptive routing.
    assert a2a.max() < 3.0
    # Applications (first 9 columns) are diluted by compute relative to
    # the worst microbenchmarks.
    assert incast[:, :9].max() <= incast.max()


def test_fig09_heatmap_slingshot(benchmark, report):
    _, malbec, _ = get_systems()
    rows, cols, values = run_once(benchmark, lambda: _run_for(malbec()))
    table = render_heatmap(
        rows, cols, values, title="Fig. 9 (bottom) — Slingshot congestion impact, linear"
    )
    report(table)
    save_result("fig09_slingshot", table)

    arr = np.array(values)
    # Paper: worst Slingshot cell is 1.3x at 512 nodes.  Allow modest
    # slack for mini-scale noise.
    assert arr.max() < 2.0
    assert np.median(arr) < 1.1
