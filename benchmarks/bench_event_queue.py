"""Event-queue microbenchmarks: calendar vs heap, in isolation.

The calendar queue is the production :class:`~repro.sim.Simulator`; the
heap is the test oracle ``tests/oracles/heap_sim.py``, kept here as the
reference column.

The fabric benches measure the queue through six layers of network
machinery; these measure the scheduler itself — steady-state push/pop
throughput, cancel-heavy churn (the retransmission-timer pattern that
motivated lazy deletion + amortized compaction), and a mixed-horizon
workload where nanosecond wire events interleave with millisecond
timeout timers (the regime the calendar's adaptive refill has to get
right).  Results merge into ``results/BENCH_engine.json`` under
``event_queue`` for CI trend lines and the EXPERIMENTS.md perf tables.
"""

import time

from conftest import run_once, save_metrics, save_result
from repro.analysis import render_table
from repro.sim import Simulator
from tests.oracles.heap_sim import HeapSimulator

#: queue kind -> simulator class
_QUEUES = {"calendar": Simulator, "heap": HeapSimulator}


def _self_clocked(kind: str, n: int) -> float:
    """Events/s for a self-rescheduling handler chain (pure queue cost)."""
    sim = _QUEUES[kind]()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n:
            sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    t0 = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - t0)


def _bulk_push_pop(kind: str, n: int) -> float:
    """Events/s with a deep queue: n pushes spread over a wide horizon,
    then handlers that each push one replacement (steady-state depth)."""
    sim = _QUEUES[kind]()
    fuel = [n]

    def fire(slot):
        if fuel[0] > 0:
            fuel[0] -= 1
            sim.schedule(float((slot * 7919) % 1000) + 1.0, fire, slot)

    for i in range(2_000):
        sim.schedule(float((i * 7919) % 1000) + 1.0, fire, i)
    t0 = time.perf_counter()
    sim.run()
    total = n + 2_000
    return total / (time.perf_counter() - t0)


def _cancel_churn(kind: str, n: int) -> float:
    """Timer ops/s for the re-arm pattern: every event cancels a pending
    far-future timer and arms a replacement (what retransmission timers
    do per ack), so dead entries pile up and amortized compaction runs."""
    sim = _QUEUES[kind]()
    fuel = [n]
    K = 256
    slots = [None] * K

    def fire(i):
        if fuel[0] <= 0:
            return
        fuel[0] -= 1
        j = (i * 131) % K
        if slots[j] is not None:
            slots[j].cancel()
        # the timer that almost never fires (cancelled by a later event)
        slots[j] = sim.schedule_cancellable(100_000.0, _noop)
        sim.schedule(3.0, fire, i + 1)

    def _noop():
        pass

    sim.schedule(0.0, fire, 0)
    t0 = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - t0)


def _mixed_horizon(kind: str, n: int) -> float:
    """Events/s when 1-ns-scale wire events interleave with ms timers —
    the span the calendar's adaptive refill width has to absorb."""
    sim = _QUEUES[kind]()
    fuel = [n]

    def fire(scale):
        if fuel[0] > 0:
            fuel[0] -= 1
            sim.schedule(scale, fire, scale)

    for i in range(512):
        sim.schedule(1.0 + i * 0.25, fire, 2.0)
    for i in range(64):
        sim.schedule(10.0 + i, fire, 1_000_000.0)  # ms-scale timers
    t0 = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - t0)


_SCENARIOS = (
    ("self-clocked chain", _self_clocked, 150_000),
    ("bulk push/pop (deep queue)", _bulk_push_pop, 150_000),
    ("cancel-heavy churn", _cancel_churn, 100_000),
    ("mixed horizon (ns + ms)", _mixed_horizon, 150_000),
)


def test_event_queue_calendar_vs_heap(benchmark, report):
    def run():
        rates = {}
        # interleaved A/B, best-of-3: queue kinds alternate inside each
        # repeat so machine noise hits both equally
        for _ in range(3):
            for name, fn, n in _SCENARIOS:
                for kind in ("calendar", "heap"):
                    r = fn(kind, n)
                    key = (name, kind)
                    if r > rates.get(key, 0.0):
                        rates[key] = r
        return rates

    rates = run_once(benchmark, run)
    rows = []
    metrics = {}
    for name, _fn, _n in _SCENARIOS:
        cal = rates[(name, "calendar")]
        heap = rates[(name, "heap")]
        rows.append(
            [
                name,
                f"{cal / 1e6:.2f} M ev/s",
                f"{heap / 1e6:.2f} M ev/s",
                f"{cal / heap:.2f}x",
            ]
        )
        key = name.split(" (")[0].replace(" ", "_").replace("/", "_")
        metrics[key] = {
            "calendar_ev_per_s": cal,
            "heap_ev_per_s": heap,
            "calendar_vs_heap": cal / heap,
        }
    table = render_table(
        ["scenario", "calendar", "heap", "calendar/heap"],
        rows,
        title="Event-queue microbench (interleaved A/B, best-of-3)",
    )
    report(table)
    save_result("event_queue", table)
    save_metrics("event_queue", metrics)
    # sanity floors only — relative numbers are machine-class facts, the
    # absolute ones vary widely on shared hosts
    for (name, kind), rate in rates.items():
        assert rate > 100_000, (name, kind, rate)
    # the tentpole's raison d'être: the calendar must not lose the deep
    # and churny regimes where the heap pays its O(log n)
    deep = metrics["bulk_push_pop"]["calendar_vs_heap"]
    churn = metrics["cancel-heavy_churn"]["calendar_vs_heap"]
    assert deep > 0.9, deep
    assert churn > 0.9, churn
