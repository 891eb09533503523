"""Run-loop exit paths and packet free-list recycling.

Two properties matter and both are about *invisibility*:

* ``run()`` leaves the cyclic collector alone, and every raising exit
  (a stall, a handler exception) drains the registered free-lists, so a
  reused campaign worker process carries no pooled objects between runs.
* Packet recycling reuses object *identity* only: pids keep their
  construction-order assignment, all fields are re-initialized, and the
  recycle points guard against any observer (telemetry, auditor,
  reliability layer, traced packets) that could hold a reference past
  the packet's death.
"""

import contextlib
import gc

import pytest

from repro.faults import FaultSchedule, link_fail, link_recover
from repro.network.packet import (
    Message,
    Packet,
    drain_packet_pool,
    packet_pool_size,
    recycle_packet,
)
from repro.network.nic import NIC
from repro.network.units import KiB
from repro.probe import Probe
from repro.sim import SimStall, Simulator
from repro.systems import malbec_mini
from tests.oracles.delivery import recycling_off


@pytest.fixture(autouse=True)
def _clean_pool():
    drain_packet_pool()
    yield
    drain_packet_pool()


# -- run-loop exits --------------------------------------------------------


def test_gc_prior_disabled_state_is_preserved():
    """A caller that already runs collector-free must stay collector-free."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    gc.disable()
    try:
        sim.run()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_exception_exit_restores_gc_and_drains_free_lists():
    """A default simulator (no hook, no watchdog: the hot loop every
    campaign worker runs) drains its free-lists on a handler exception."""
    sim = Simulator()
    drained = []
    sim.register_free_list(lambda: drained.append("a"))
    sim.register_free_list(lambda: drained.append("b"))

    def boom():
        raise RuntimeError("handler failure")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError, match="handler failure"):
        sim.run()
    assert gc.isenabled()
    assert drained == ["a", "b"]


def test_stall_exit_restores_gc_and_drains_free_lists():
    sim = Simulator()
    sim.watchdog(max_events=10)
    drained = []
    sim.register_free_list(lambda: drained.append(1))
    fuel = [30]

    def chain():
        if fuel[0] > 0:
            fuel[0] -= 1
            sim.schedule(1.0, chain)

    sim.schedule(0.0, chain)
    with pytest.raises(SimStall):
        sim.run()
    assert gc.isenabled()
    assert drained == [1]
    # a clean (non-raising) run does NOT drain: the pool is warm state
    sim.watchdog()
    sim.run()
    assert drained == [1]


def test_register_free_list_dedup_and_error_suppression():
    sim = Simulator()
    calls = []

    def drain():
        calls.append(1)

    sim.register_free_list(drain)
    sim.register_free_list(drain)  # no-op

    def bad():
        raise OSError("pool gone")

    sim.register_free_list(bad)
    sim.drain_free_lists()  # must not raise
    assert calls == [1]


# -- packet free-list -----------------------------------------------------


def test_recycle_and_reuse_preserves_pid_sequence():
    msg = Message(0, 1, 8_000)  # two packets
    pkts = list(msg.packets())
    last_pid = pkts[-1].pid
    assert pkts[1].pid == pkts[0].pid + 1
    recycle_packet(pkts[0])
    assert packet_pool_size() == 1
    assert pkts[0].message is None and pkts[0].arrival_port is None
    # double-recycle is a no-op (the CI ack microbench acks one packet
    # in a loop; recycling must tolerate that)
    recycle_packet(pkts[0])
    assert packet_pool_size() == 1

    msg2 = Message(2, 3, 100)
    (reused,) = list(msg2.packets())
    assert reused is pkts[0]  # object identity reused
    assert packet_pool_size() == 0
    # ... but the pid comes from the same global counter a fresh
    # construction would have used
    assert reused.pid == last_pid + 1
    assert reused.message is msg2
    assert reused.src == 2 and reused.dst == 3
    assert reused.seq == 0 and reused.attempt == 0 and not reused.traced
    assert reused.hops == 0


def test_recycle_never_pools_a_message_less_packet():
    pkt = Packet(0, 1, 1024)  # message=None: diagnostic/bench packet
    recycle_packet(pkt)
    assert packet_pool_size() == 0


def test_pool_cap_bounds_graveyard():
    from repro.network import packet as packet_mod

    for _ in range(packet_mod._POOL_CAP + 50):
        msg = Message(0, 1, 8)
        (pkt,) = list(msg.packets())
        pkt_list = [pkt]
        recycle_packet(pkt_list[0])
    assert packet_pool_size() <= packet_mod._POOL_CAP


def _cross_traffic(fabric, senders=8):
    n = fabric.topology.n_nodes
    for i in range(senders):
        fabric.send(i, (i + n // 2) % n, 16 * KiB)
    fabric.sim.run()


def test_fabric_run_recycles_and_results_match_recycling_off():
    def run(recycle):
        drain_packet_pool()
        with contextlib.nullcontext() if recycle else recycling_off():
            fabric = malbec_mini().build()
            _cross_traffic(fabric)
        return fabric

    f_on = run(True)
    assert packet_pool_size() > 0  # acked packets actually pooled
    stats_on = (
        f_on.sim.events_processed,
        f_on.sim.now,
        f_on.packets_delivered(),
        [nic.pkts_injected for nic in f_on.nics],
    )
    f_off = run(False)
    assert packet_pool_size() == 0
    stats_off = (
        f_off.sim.events_processed,
        f_off.sim.now,
        f_off.packets_delivered(),
        [nic.pkts_injected for nic in f_off.nics],
    )
    assert stats_on == stats_off


def test_attached_probe_suspends_ack_recycling():
    """An observer may hold a packet past its ack: while any probe sits
    on the NICs nothing is pooled, and detaching resumes recycling."""
    fabric = malbec_mini().build()
    handle = fabric.attach_probe(lambda c: Probe() if isinstance(c, NIC) else None)
    _cross_traffic(fabric)
    assert packet_pool_size() == 0
    handle.detach()
    _cross_traffic(fabric)
    assert packet_pool_size() > 0


def test_retrans_keeps_ack_recycling_off_despite_probe_churn():
    """The reliability layer tracks every unsettled packet, so a NIC with
    ``retrans`` never recycles, however probes come and go."""
    fabric = malbec_mini().build()
    fabric.attach_faults(FaultSchedule(()))
    assert all(nic.retrans is not None for nic in fabric.nics)
    fabric.attach_probe(lambda c: Probe()).detach()
    assert all(nic.probe is None for nic in fabric.nics)
    _cross_traffic(fabric)
    assert fabric.packets_delivered() > 0
    assert packet_pool_size() == 0


def test_fault_injector_with_reliability_disables_drop_recycling():
    fabric = malbec_mini().build()
    ports = [port for _, port in fabric.all_ports()]
    assert all(port.recycle_drops for port in ports)
    fabric.attach_faults(FaultSchedule(()))
    assert not any(port.recycle_drops for port in ports)
    # the ack-path side is off through the retrans slot
    assert all(nic.retrans is not None for nic in fabric.nics)


def test_faulted_run_with_drops_keeps_accounting(tmp_path):
    """A reliability-off faulted run (drops recycled at the port) still
    accounts drops/deliveries exactly as with recycling off."""

    def run(recycle):
        drain_packet_pool()
        with contextlib.nullcontext() if recycle else recycling_off():
            fabric = malbec_mini().build()
            key = next(iter(fabric.links))
            fabric.attach_faults(
                FaultSchedule(
                    [link_fail(5_000.0, key), link_recover(200_000.0, key)]
                ),
                reliability=False,
            )
            _cross_traffic(fabric, senders=fabric.topology.n_nodes)
        return (
            fabric.sim.events_processed,
            fabric.packets_delivered(),
            fabric.packets_dropped(),
        )

    assert run(True) == run(False)
