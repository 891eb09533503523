"""Routing-decision microbenchmark: raw UGAL decisions per second.

Not a paper figure — isolates ``AdaptiveRouter.route()`` (the most-
executed code in the simulator after the event loop) from the rest of
the data path.  One code path, timed in two regimes:

* **healthy** — every link up: candidate sets come from the per-switch
  live tables, so only the RNG sampling and congestion scoring run per
  decision;
* **degraded** — a few links failed before the timed loop: the same
  tables now hold the filtered live sets, built once after the fault
  epoch moved, and some decisions reroute around the dead links.

The loop drives the router directly with synthetic injection-time
packets (``hops=1``, so the full minimal-vs-Valiant candidate set is
generated and scored every call) over every switch and a spread of
destinations.  Numbers merge into ``results/BENCH_engine.json`` for the
CI perf-smoke floors and the EXPERIMENTS.md perf section.
"""

import itertools
import time

from conftest import run_once, save_metrics, save_result
from repro.analysis import render_table
from repro.network.packet import Packet
from repro.systems import malbec_mini

#: decisions timed per regime (large enough to swamp timer resolution,
#: small enough to keep the bench under a second)
N_DECISIONS = 120_000


def _decision_cases(fabric):
    """(switch, packet) pairs covering local, global and Valiant legs."""
    topo = fabric.topology
    n = topo.n_nodes
    hps = topo.params.hosts_per_switch
    cases = []
    for src in range(0, n, max(1, hps)):
        sw = fabric.switches[topo.node_switch(src)]
        for dst in ((src + n // 2) % n, (src + hps) % n, (src + 1) % n):
            if dst == src:
                continue
            pkt = Packet(src, dst, 1024)
            pkt.hops = 1  # injection decision: full candidate set
            cases.append((sw, pkt))
    return cases


def _decision_rate(fabric, n_decisions: int, repeats: int = 2) -> float:
    route = fabric.router.route
    cases = _decision_cases(fabric)
    loop = itertools.cycle(cases)
    best = None
    for _ in range(repeats):  # best-of-N wall clock rejects machine noise
        t0 = time.perf_counter()
        for _ in range(n_decisions):
            sw, pkt = next(loop)
            route(sw, pkt)
            # route() may commit a Valiant misroute on the packet; undo
            # it so every iteration decides the same injection shape.
            pkt.intermediate_group = None
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
    return n_decisions / best


def _fail_some_links(fabric) -> None:
    """Degrade the fabric: one local and one global link per early group."""
    local = [k for k in sorted(fabric.links) if k[0] == "local"][:2]
    glob = [k for k in sorted(fabric.links) if k[0] == "global"][:2]
    for key in local + glob:
        fabric.fail_link(key)
    assert fabric.topology.degraded


def test_routing_decision_rate(benchmark, report):
    def run():
        healthy = malbec_mini().build()
        healthy_rate = _decision_rate(healthy, N_DECISIONS)
        degraded = malbec_mini().build()
        _fail_some_links(degraded)
        degraded_rate = _decision_rate(degraded, N_DECISIONS)
        return healthy_rate, degraded_rate

    healthy_rate, degraded_rate = run_once(benchmark, run)
    table = render_table(
        ["regime", "rate"],
        [
            ["healthy", f"{healthy_rate:,.0f} decisions/s"],
            ["degraded (4 links down)", f"{degraded_rate:,.0f} decisions/s"],
        ],
        title="AdaptiveRouter decision rate (malbec_mini, injection decisions)",
    )
    report(table)
    save_result("engine_routing_decisions", table)
    save_metrics(
        "routing_decisions",
        {
            "healthy_decisions_per_s": healthy_rate,
            "degraded_decisions_per_s": degraded_rate,
            "n_decisions": N_DECISIONS,
        },
    )
    # Sanity floors (CI smoke asserts harder ones from BENCH_engine.json).
    assert healthy_rate > 50_000
    assert degraded_rate > 50_000
