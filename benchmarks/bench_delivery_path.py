"""Delivery-path microbenchmark: NIC ack handling and pump admission.

Not a paper figure — isolates the two per-packet code paths that the
allocation-free delivery fast path rebuilt (``NIC.on_ack`` and
``NIC._pump``) from routing and the event loop, and times them against
the straight-line reference implementation in
``tests/oracles/delivery.py``.  Two meters:

* **acks/s** — one full ack round-trip epilogue per iteration: window
  update through the CC strategy, counters, and an (empty) pump check;
* **pump iterations/s** — admitted packets per second through the
  window-admission loop, with the egress port stubbed so only the
  NIC-side bookkeeping is on the clock.

Numbers merge into ``results/BENCH_engine.json`` for the CI perf-smoke
floors and the EXPERIMENTS.md perf section.
"""

import time

from conftest import run_once, save_metrics, save_result
from repro.analysis import render_table
from repro.network.dragonfly import DragonflyParams
from repro.network.packet import Packet
from repro.systems import slingshot_config
from tests.oracles.delivery import reference_delivery

#: iterations per meter (swamps timer resolution, stays sub-second)
N_ACKS = 200_000
N_PUMP_PACKETS = 200_000


class _Sink:
    """Egress stub: absorbs packets so only NIC bookkeeping is timed."""

    bandwidth = 25.0  # B/ns, only read by the paced branch

    def enqueue(self, pkt):
        pass


def _build(fast: bool):
    cfg = slingshot_config(DragonflyParams(2, 3, 2, links_per_pair=1), seed=0)
    if fast:
        return cfg.build()
    with reference_delivery():
        return cfg.build()


def _ack_rate(fabric, n_acks: int, repeats: int = 3) -> float:
    nic = fabric.nics[0]
    state = nic._pair(1)
    pkt = Packet(0, 1, 1024)
    on_ack = nic.on_ack
    best = None
    for _ in range(repeats):  # best-of-N wall clock rejects machine noise
        t0 = time.perf_counter()
        for _ in range(n_acks):
            # keep the pair in steady state: one ack settles one packet
            state.in_flight = 1
            on_ack(pkt)
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
    return n_acks / best


def _pump_rate(fabric, n_packets: int, repeats: int = 3) -> float:
    nic = fabric.nics[0]
    nic.out_port = _Sink()  # admission loop only; no events, no credits
    state = nic._pair(1)
    state.window = float(n_packets)  # admit the whole batch in one pump
    pkts = [Packet(0, 1, 1024) for _ in range(n_packets)]
    nbytes = float(sum(p.size for p in pkts))
    best = None
    for _ in range(repeats):
        state.pending.clear()
        state.pending.extend(pkts)
        state.pending_count = n_packets
        state.pending_bytes = nbytes
        state.in_flight = 0
        t0 = time.perf_counter()
        nic._pump(state)
        wall = time.perf_counter() - t0
        assert state.pending_count == 0  # everything was admitted
        if best is None or wall < best:
            best = wall
    return n_packets / best


def test_delivery_path_rates(benchmark, report):
    def run():
        fast = _build(True)
        ref = _build(False)
        return (
            _ack_rate(fast, N_ACKS),
            _ack_rate(ref, N_ACKS),
            _pump_rate(fast, N_PUMP_PACKETS),
            _pump_rate(ref, N_PUMP_PACKETS),
        )

    ack_fast, ack_ref, pump_fast, pump_ref = run_once(benchmark, run)
    table = render_table(
        ["meter", "fast path", "reference", "speedup"],
        [
            ["acks", f"{ack_fast:,.0f} acks/s", f"{ack_ref:,.0f} acks/s",
             f"{ack_fast / ack_ref:.2f}x"],
            ["pump admissions", f"{pump_fast:,.0f} pkt/s",
             f"{pump_ref:,.0f} pkt/s", f"{pump_fast / pump_ref:.2f}x"],
        ],
        title="NIC delivery path (ack epilogue / window admission)",
    )
    report(table)
    save_result("engine_delivery_path", table)
    save_metrics(
        "delivery_path",
        {
            "acks_per_s": ack_fast,
            "acks_per_s_reference": ack_ref,
            "pump_packets_per_s": pump_fast,
            "pump_packets_per_s_reference": pump_ref,
            "n_acks": N_ACKS,
            "n_pump_packets": N_PUMP_PACKETS,
        },
    )
    # Sanity floors (CI smoke asserts harder ones from BENCH_engine.json).
    assert ack_fast > 200_000
    assert pump_fast > 200_000
