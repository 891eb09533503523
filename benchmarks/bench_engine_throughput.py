"""Engine throughput: how fast does the substrate simulate?

Not a paper figure — the capacity check that bounds every other bench:
raw event throughput of the DES core, packet throughput of the fabric,
and the cost of one congested heatmap cell.  These numbers are what justify the
mini-scale default (DESIGN.md §1).  Besides the human-readable tables,
each test merges its numbers into ``results/BENCH_engine.json`` for
machine consumption (CI trend lines, the EXPERIMENTS.md perf section).
"""

import time

from conftest import run_once, save_metrics, save_result
from repro.analysis import render_table
from repro.network.units import KiB, MS
from repro.sim import Simulator
from repro.systems import crystal_mini, malbec_mini

#: pkt/s measured for the same 80-node bisection workload at the seed
#: commit (c67e78a), before the hot-path overhaul.  The overhaul's
#: acceptance bar is >= 1.5x this on the same machine class.
SEED_PKT_RATE = 15_700


def test_engine_raw_event_throughput(benchmark, report):
    N = 200_000

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < N:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        t0 = time.perf_counter()
        sim.run()
        return N / (time.perf_counter() - t0)

    rate = run_once(benchmark, run)
    table = render_table(
        ["metric", "value"],
        [["event throughput", f"{rate / 1e6:.2f} M events/s"]],
        title="Engine throughput (self-rescheduling timer chain)",
    )
    report(table)
    save_result("engine_events", table)
    save_metrics("raw_event_throughput", {"events_per_s": rate})
    assert rate > 100_000  # sanity floor


def _bisection_stream(repeats: int = 3):
    """The 80-node bisection workload; returns rates and totals.

    The simulated work is deterministic (identical event count every
    run), so wall clock is taken as the best of *repeats* — the
    standard low-noise estimator for sub-second benchmarks on shared
    machines.
    """
    best = None
    for _ in range(repeats):
        fabric = malbec_mini().build()
        n = fabric.topology.n_nodes
        for i in range(n):
            fabric.send(i, (i + n // 2) % n, 256 * KiB)
        t0 = time.perf_counter()
        fabric.sim.run()
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, fabric.packets_delivered(), fabric.sim.events_processed)
    wall, pkts, events = best
    return {
        "pkt_per_s": pkts / wall,
        "ev_per_s": events / wall,
        "events": events,
        "packets": pkts,
        "wall_s": wall,
    }


def _count_routing_decisions() -> int:
    """Exact route() call count for the bisection workload.

    Runs the identical (deterministic) simulation once with a counting
    shim on the router, so the timed runs stay uninstrumented.
    """
    fabric = malbec_mini().build()
    n = fabric.topology.n_nodes
    count = [0]
    route = fabric.router.route

    def counting(sw, pkt):
        count[0] += 1
        return route(sw, pkt)

    fabric.router.route = counting
    for i in range(n):
        fabric.send(i, (i + n // 2) % n, 256 * KiB)
    fabric.sim.run()
    return count[0]


def test_fabric_packet_throughput(benchmark, report):
    default = run_once(benchmark, _bisection_stream)
    decisions = _count_routing_decisions()
    # Route calls divided by whole-run wall time is not a routing rate
    # (the event loop, NIC and ports share that wall), so only the count
    # is recorded; the per-call routing cost is ``routing.us_per_call``
    # from ``benchmarks/perf/run.py --trace 1``.
    table = render_table(
        ["metric", "value"],
        [
            ["packets simulated", f"{default['pkt_per_s']:,.0f} pkt/s"],
            ["fabric events", f"{default['ev_per_s']:,.0f} ev/s"],
            ["events total", f"{default['events']:,}"],
            ["routing decisions", f"{decisions:,}"],
        ],
        title="Fabric throughput (80-node bisection stream)",
    )
    report(table)
    save_result("engine_fabric", table)
    save_metrics(
        "fabric_throughput",
        {
            "default": default,
            "seed_pkt_per_s": SEED_PKT_RATE,
            "routing_decisions": decisions,
            "speedup_vs_seed": default["pkt_per_s"] / SEED_PKT_RATE,
        },
    )
    # The event-core overhaul's acceptance bar: past the delivery fast
    # path's ~3.0x over the seed commit.  The calendar queue + packet
    # recycling measure ~3.3x (interleaved A/B it is 1.35x over the
    # heap/no-recycle PR 9 configuration on the same machine); the floor
    # sits at 2.3x because shared-host wall-clock jitter on sub-second
    # runs reaches ±30% under transient load.
    assert default["pkt_per_s"] > 2.3 * SEED_PKT_RATE


def test_congested_cell_cost(benchmark, report):
    """Wall-clock of one Aries incast heatmap cell (the bench budget unit)."""
    from repro.workloads import allreduce_bench, congestion_impact, incast_congestor, split_nodes

    def one_cell():
        vic, agg = split_nodes(list(range(64)), 32, "random", seed=3)
        t0 = time.perf_counter()
        r = congestion_impact(
            crystal_mini(),
            vic,
            allreduce_bench(8, iterations=6),
            agg,
            incast_congestor(),
            max_ns=400 * MS,
        )
        return time.perf_counter() - t0, r

    def run():
        # deterministic work; best-of-2 wall clock rejects machine noise
        return min((one_cell() for _ in range(2)), key=lambda x: x[0])

    wall, r = run_once(benchmark, run)
    pkts = r["pkts_isolated"] + r["pkts_congested"]
    table = render_table(
        ["metric", "value"],
        [
            ["one congested heatmap cell", f"{wall:.1f} s"],
            ["packets simulated", f"{pkts:,.0f} ({pkts / wall:,.0f} pkt/s)"],
        ],
        title="Cost of one Fig. 9 cell (isolated + congested runs)",
    )
    report(table)
    save_result("engine_cell_cost", table)
    save_metrics(
        "congested_cell_cost",
        {"wall_s": wall, "pkts": pkts, "pkt_per_s": pkts / wall},
    )
