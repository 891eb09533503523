"""Cross-validation: the packet simulator against analytic/fluid oracles.

A reproduction that only agrees with itself proves nothing — these tests
pin the DES against closed-form results where they exist.
"""

import pytest

from repro.core.traffic_classes import TrafficClass
from repro.flowsim import allocate_classes
from repro.network.units import KiB, MiB, MS
from repro.probe import Probe
from repro.systems import malbec_mini
from tests.oracles.maxmin import Flow, MaxMinNetwork


class OnArbitrated(Probe):
    """Calls ``fn(pkt)`` for every packet a port's arbiter serves."""

    def __init__(self, fn):
        self.fn = fn

    def arbitrated(self, port, pkt):
        self.fn(pkt)


def test_single_stream_matches_store_and_forward_formula():
    """One message, quiet network: completion time must equal the
    pipelined store-and-forward formula within a small tolerance."""
    cfg = malbec_mini()
    fabric = cfg.build()
    nbytes = 1 * MiB
    msg = fabric.send(0, 1, nbytes)  # same switch: NIC -> sw -> NIC
    fabric.sim.run()
    elapsed = msg.complete_time - msg.submit_time

    wire_bytes = msg.wire_bytes()
    pkt_bytes = wire_bytes / msg.npackets
    # bottleneck serialization = NIC rate; plus one packet's pipeline:
    expected = (
        wire_bytes / cfg.nic_bandwidth
        + pkt_bytes / cfg.host_link.bandwidth
        + cfg.switch_latency
        + 2 * cfg.host_link.prop_delay
    )
    assert elapsed == pytest.approx(expected, rel=0.15)


def test_two_streams_sharing_a_host_port_match_maxmin_oracle():
    """Two 100 Gb/s senders into one 200 Gb/s port: the max-min oracle
    says each is NIC-limited; completion must match."""
    cfg = malbec_mini()
    fabric = cfg.build()
    nbytes = 2 * MiB
    m1 = fabric.send(20, 0, nbytes)
    m2 = fabric.send(40, 0, nbytes)
    fabric.sim.run()
    finish = max(m1.complete_time, m2.complete_time)

    oracle = MaxMinNetwork()
    oracle.add_link("rx", cfg.host_link.bandwidth)
    f1 = oracle.add_flow(Flow(path=["rx"], demand=cfg.nic_bandwidth))
    oracle.add_flow(Flow(path=["rx"], demand=cfg.nic_bandwidth))
    oracle.solve()
    expected = m1.wire_bytes() / f1.rate
    assert finish == pytest.approx(expected, rel=0.25)


def test_three_streams_one_receiver_limited_by_drain_rate():
    """3 senders x 12.5 B/ns into a 25 B/ns port: aggregate goodput is
    the drain rate, not the 37.5 B/ns offered load."""
    cfg = malbec_mini()
    fabric = cfg.build()
    nbytes = 1 * MiB
    msgs = [fabric.send(s, 0, nbytes) for s in (20, 40, 60)]
    fabric.sim.run()
    finish = max(m.complete_time for m in msgs)
    total_wire = sum(m.wire_bytes() for m in msgs)
    achieved = total_wire / finish
    drain = cfg.host_link.bandwidth
    assert achieved <= drain * 1.02
    # Congestion control trades some incast throughput for victim
    # protection; without it the drain rate is fully used.
    assert achieved >= drain * 0.55
    nocc = malbec_mini(cc="none").build()
    msgs2 = [nocc.send(s, 0, nbytes) for s in (20, 40, 60)]
    nocc.sim.run()
    achieved_nocc = total_wire / max(m.complete_time for m in msgs2)
    assert achieved_nocc >= drain * 0.9


def test_des_tc_shares_match_fluid_allocation():
    """Two always-backlogged classes through one egress port: the DES
    byte shares must match allocate_classes' 60/40 within tolerance."""
    classes = [
        TrafficClass("gold", min_share=0.6),
        TrafficClass("best-effort", min_share=0.1),
    ]
    fluid = allocate_classes(1.0, classes, [float("inf"), float("inf")])
    assert fluid == pytest.approx([0.6, 0.4])  # spare 0.3 -> lowest class

    # CC disabled and two senders per class so the egress port is truly
    # oversubscribed and the *scheduler* decides the split.
    cfg = malbec_mini(classes=classes, cc="none")
    fabric = cfg.build()
    port = fabric.host_port(0)
    served = {0: 0, 1: 0}
    port.probe = OnArbitrated(
        lambda pkt: served.__setitem__(pkt.tc, served[pkt.tc] + pkt.size)
    )
    for _ in range(60):
        for src in (20, 24):
            fabric.send(src, 0, 64 * KiB, tc=0)
        for src in (40, 44):
            fabric.send(src, 0, 64 * KiB, tc=1)
    # Sample while BOTH classes are still backlogged (a full drain would
    # trivially equalize the totals — both inject the same volume).
    fabric.sim.run(until=0.4 * MS)
    total = served[0] + served[1]
    assert total > 0
    share_gold = served[0] / total
    assert share_gold == pytest.approx(0.6, abs=0.08)
    fabric.sim.run()  # drain cleanly
    fabric.assert_quiescent()


def test_des_priority_class_preempts_like_fluid():
    classes = [
        TrafficClass("bulk", priority=0),
        TrafficClass("urgent", priority=1),
    ]
    fluid = allocate_classes(1.0, classes, [float("inf"), float("inf")])
    assert fluid == pytest.approx([0.0, 1.0])

    cfg = malbec_mini(classes=classes, cc="none")
    fabric = cfg.build()
    port = fabric.host_port(0)
    served = {0: 0, 1: 0}
    port.probe = OnArbitrated(
        lambda pkt: served.__setitem__(pkt.tc, served[pkt.tc] + pkt.size)
    )
    for _ in range(60):
        for src in (20, 24):
            fabric.send(src, 0, 64 * KiB, tc=0)
        for src in (40, 44):
            fabric.send(src, 0, 64 * KiB, tc=1)
    fabric.sim.run(until=0.4 * MS)  # sample during contention
    total = served[0] + served[1]
    assert total > 0
    # urgent dominates while both are backlogged (not 100%: bulk sneaks
    # packets in whenever urgent's queue momentarily empties upstream)
    assert served[1] / total > 0.7
