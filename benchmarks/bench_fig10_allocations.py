"""Figure 10: congestion-impact distributions across allocation policies,
PPN, and node count.

Paper: (A) at 512 nodes / 1 PPN, Aries worst-case impacts are 92 /
144 / 154 for linear / interleaved / random while Slingshot stays
<= 1.8 / 2.3; (B) raising the aggressor to 24 PPN pushes Aries to 424
while Slingshot stays <= 2.6 (~200x apart); (C) at 128 nodes both
improve (Aries <= 40-43, Slingshot <= 1.5) because less traffic is
generated and more global bandwidth is available per node.
"""

from functools import partial

import numpy as np

from conftest import get_systems, run_once, save_result
from repro.analysis import render_table
from repro.network.units import KiB
from repro.sweeps import run_heatmap
from repro.workloads import allreduce_bench, alltoall_bench, pingpong

NODES = list(range(64))
SMALL_NODES = list(range(24))


def _victims():
    """A small victim panel for the distribution plots."""
    return {
        "allreduce-8B": partial(allreduce_bench, 8, iterations=6),
        "alltoall-128K": partial(alltoall_bench, 128 * KiB, iterations=2),
        "pingpong-8B": partial(pingpong, 8, iterations=6),
    }


def _panel(config, nodes, policy, ppn):
    _, _, values = run_heatmap(
        config, _victims(), nodes, policy=policy, ppn=ppn, jobs=None
    )
    return [v for row in values for v in row]


def _summary_rows(results):
    rows = []
    for label, impacts in results.items():
        arr = np.array(impacts)
        rows.append(
            [
                label,
                f"{np.median(arr):.2f}",
                f"{np.percentile(arr, 90):.2f}",
                f"{arr.max():.2f}",
            ]
        )
    return rows


def test_fig10a_allocation_policies(benchmark, report):
    crystal, malbec, _ = get_systems()

    def run_all():
        out = {}
        for sys_name, cfg_fn in (("aries", crystal), ("slingshot", malbec)):
            for policy in ("linear", "interleaved", "random"):
                out[f"{sys_name}/{policy}"] = _panel(cfg_fn(), NODES, policy, ppn=1)
        return out

    results = run_once(benchmark, run_all)
    table = render_table(
        ["system/allocation", "median C", "p90 C", "max C"],
        _summary_rows(results),
        title="Fig. 10(A) — impact distribution by allocation (1 PPN)",
    )
    report(table)
    save_result("fig10a_allocations", table)

    aries_max = {p: max(results[f"aries/{p}"]) for p in ("linear", "interleaved", "random")}
    ss_max = {p: max(results[f"slingshot/{p}"]) for p in ("linear", "interleaved", "random")}
    # Spread-out allocations are worse than linear on Aries (paper: 92 -> 144/154).
    assert max(aries_max["interleaved"], aries_max["random"]) > aries_max["linear"]
    # Slingshot stays near 1 for every allocation (paper <= 2.3).
    assert max(ss_max.values()) < 2.5
    # The gap between networks is at least an order of magnitude.
    assert max(aries_max.values()) / max(ss_max.values()) > 8


def test_fig10b_higher_ppn(benchmark, report):
    crystal, malbec, _ = get_systems()

    def run_all():
        return {
            "aries/ppn1": _panel(crystal(), NODES, "random", ppn=1),
            "aries/ppn3": _panel(crystal(), NODES, "random", ppn=3),
            "slingshot/ppn3": _panel(malbec(), NODES, "random", ppn=3),
        }

    results = run_once(benchmark, run_all)
    table = render_table(
        ["system/ppn", "median C", "p90 C", "max C"],
        _summary_rows(results),
        title="Fig. 10(B) — impact with a higher-PPN aggressor (random)",
    )
    report(table)
    save_result("fig10b_ppn", table)
    # More processes per aggressor node -> at least as much damage on Aries.
    assert max(results["aries/ppn3"]) >= 0.8 * max(results["aries/ppn1"])
    # Slingshot remains protected even at high PPN (paper: <= 2.6 vs 424).
    assert max(results["slingshot/ppn3"]) < 2.6
    assert max(results["aries/ppn3"]) / max(results["slingshot/ppn3"]) > 8


def test_fig10c_smaller_node_count(benchmark, report):
    crystal, malbec, _ = get_systems()

    def run_all():
        return {
            "aries/64n": _panel(crystal(), NODES, "random", ppn=1),
            "aries/24n": _panel(crystal(), SMALL_NODES, "random", ppn=1),
            "slingshot/24n": _panel(malbec(), SMALL_NODES, "random", ppn=1),
        }

    results = run_once(benchmark, run_all)
    table = render_table(
        ["system/nodes", "median C", "p90 C", "max C"],
        _summary_rows(results),
        title="Fig. 10(C) — impact at a smaller booked-node count (random)",
    )
    report(table)
    save_result("fig10c_nodes", table)
    # Fewer nodes -> less generated traffic -> milder impact (paper: 154 -> 40).
    assert max(results["aries/24n"]) < max(results["aries/64n"])
    assert max(results["slingshot/24n"]) < 2.0
