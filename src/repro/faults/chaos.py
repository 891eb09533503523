"""Chaos experiments: canned degraded-fabric runs for the CLI and tests.

Two entry points:

* :func:`chaos_run` — random staggered traffic under a fault schedule,
  returning a conservation/recovery report (what ``python -m repro
  chaos`` prints);
* :func:`degradation_curve` — cross-group traffic with k of the parallel
  global links between two groups failed, for k = 0, 1, …, sweeping out
  the bandwidth-vs-failures curve (the fabric keeps serving traffic at
  proportionally reduced capacity, paper §II-F).
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..network.units import KiB
from ..sim.rng import stable_hash
from .events import link_fail
from .schedule import FaultSchedule

__all__ = ["chaos_run", "degradation_curve"]


def chaos_run(
    config,
    schedule=None,
    *,
    messages: int = 200,
    msg_bytes: int = 16 * KiB,
    seed: int = 0,
    spread_ns: float = 200_000.0,
    max_ns: float = 60_000_000.0,
    **injector_kwargs,
):
    """Run random pairwise traffic under a fault schedule; report recovery.

    *schedule* may be a :class:`FaultSchedule`, an iterable of events, a
    callable ``fabric -> FaultSchedule`` (for schedules that need the
    built link directory, e.g. :meth:`FaultSchedule.generate`), or None.
    Returns a dict of counters plus the live ``fabric`` and ``injector``
    for further inspection.
    """
    fabric = config.build()
    if callable(schedule):
        schedule = schedule(fabric)
    injector = fabric.attach_faults(schedule, **injector_kwargs)

    rng = random.Random(stable_hash("chaos-traffic", seed))
    n = fabric.topology.n_nodes
    completed: List = []
    arrivals = []
    for _ in range(messages):
        src = rng.randrange(n)
        dst = rng.randrange(n - 1)
        if dst >= src:
            dst += 1  # never self-send: every message crosses the fabric
        arrivals.append((rng.uniform(0.0, spread_ns), src, dst))
    # In time order (draw order on a tie: the sort is stable), each
    # arrival schedules the next, so the event queue holds one pending
    # arrival, not all of them.  The first, and earliest, goes through
    # schedule_at(), which rejects a negative or NaN spread_ns; the rest
    # are pushed at their drawn times as is, since schedule_at() would
    # add each back onto now as a delay, which can round.
    arrivals.sort(key=lambda a: a[0])
    sim = fabric.sim

    def arrive(k):
        _, src, dst = arrivals[k]
        fabric.send(src, dst, msg_bytes, on_complete=completed.append)
        if k + 1 < len(arrivals):
            sim.push(arrivals[k + 1][0], arrive, (k + 1,))

    if arrivals:
        sim.schedule_at(arrivals[0][0], arrive, 0)
    sim.run(until=max_ns)

    # run(until=...) fast-forwards now to max_ns even when the queue
    # drained early; makespan must come from actual completions.
    makespan = max((m.complete_time for m in completed), default=0.0)
    delivered_bytes = fabric.bytes_delivered()
    return {
        "fabric": fabric,
        "injector": injector,
        "messages_sent": fabric.messages_sent,
        "messages_completed": fabric.messages_completed,
        "pkts_injected": fabric.packets_injected(),
        "pkts_delivered": fabric.packets_delivered(),
        "pkts_dropped": fabric.packets_dropped(),
        "retransmits": injector.retransmits(),
        "dup_pkts": injector.dup_pkts(),
        "giveups": injector.giveups(),
        "reroutes": getattr(fabric.router, "reroutes", 0),
        "no_route": getattr(fabric.router, "no_route", 0),
        "faults_applied": injector.events_applied,
        "links_down_end": fabric.links_down(),
        "makespan_ns": makespan,
        # bytes/ns == GB/s; *8 for Gb/s
        "goodput_gbps": (delivered_bytes * 8.0 / makespan) if makespan else 0.0,
        "lossless": fabric.messages_completed == fabric.messages_sent
        and injector.giveups() == 0,
    }


def _curve_cell(args):
    """One degradation-curve point (module-level: the journal keys
    results by its name).  Returns the row dict minus ``relative``, which
    needs the whole curve and is filled in after the gather."""
    config, gi, gj, k, msg_bytes, max_ns = args
    links_per_pair = config.params.links_per_pair
    fabric = config.build()
    lo, hi = min(gi, gj), max(gi, gj)
    schedule = FaultSchedule(
        [link_fail(0.0, ("global", lo, hi, i)) for i in range(k)]
    )
    fabric.attach_faults(schedule)
    srcs = list(fabric.topology.nodes_in_group(gi))
    dsts = list(fabric.topology.nodes_in_group(gj))
    completed: List = []
    for s, d in zip(srcs, dsts):
        fabric.send(s, d, msg_bytes, on_complete=completed.append)
    fabric.sim.run(until=max_ns)
    makespan = max((m.complete_time for m in completed), default=0.0)
    gbps = (fabric.bytes_delivered() * 8.0 / makespan) if makespan else 0.0
    return {
        "k_failed": k,
        "links_live": links_per_pair - k,
        "messages_completed": fabric.messages_completed,
        "messages_sent": fabric.messages_sent,
        "makespan_ns": makespan,
        "goodput_gbps": gbps,
    }


def degradation_curve(
    config,
    gi: int = 0,
    gj: int = 1,
    ks: Optional[List[int]] = None,
    msg_bytes: int = 256 * KiB,
    max_ns: float = 120_000_000.0,
    jobs: Optional[int] = 1,
    resilience=None,
):
    """Cross-group bandwidth with k failed parallel global links.

    For each k, builds a fresh fabric, fails the first k of the
    ``links_per_pair`` global links between groups *gi* and *gj* at t=0,
    then has every node of *gi* stream *msg_bytes* to its counterpart in
    *gj*.  Returns one row per k: delivered state, makespan, aggregate
    bandwidth, and bandwidth relative to the healthy fabric.  With
    k < links_per_pair live links left, all traffic still completes —
    only slower (roughly proportionally, once the global links are the
    bottleneck).

    The k-points are independent simulations; ``jobs`` fans them out via
    :func:`repro.parallel.run_cells` (``None`` = all cores), with rows
    guaranteed cell-for-cell identical to a serial run.  *resilience*
    (a :class:`repro.resilient.ResilienceConfig`) turns on supervision
    for the sweep — quarantined k-points come back as
    :class:`repro.resilient.CellFailure` holes with no ``relative``
    entry, and a journaled sweep resumes after a crash.
    """
    from ..parallel import run_cells
    from ..resilient import CellFailure

    links_per_pair = config.params.links_per_pair
    if ks is None:
        ks = list(range(links_per_pair))
    for k in ks:
        if not (0 <= k < links_per_pair):
            raise ValueError(
                f"k={k} must leave at least one of the "
                f"{links_per_pair} parallel links alive"
            )
    cells = [(config, gi, gj, k, msg_bytes, max_ns) for k in ks]
    rows = run_cells(_curve_cell, cells, jobs=jobs, resilience=resilience)
    base = (
        rows[0]["goodput_gbps"]
        if rows and not isinstance(rows[0], CellFailure)
        else 0.0
    )
    for i, row in enumerate(rows):
        if isinstance(row, CellFailure):
            continue
        row["relative"] = 1.0 if i == 0 else (
            row["goodput_gbps"] / base if base else 0.0
        )
    return rows
