"""Latency attribution: stage budgets partition delivered latency.

Two layers of checks: a hand-built 3-hop span stream where every stage
budget is known by construction, and a real simulation where the ISSUE
acceptance criterion holds — stage means sum to the mean latency within
1 ns.
"""

import random

from repro.network.units import KiB
from repro.observe import (
    STAGES,
    attribute_packets,
    attribution_report,
    victim_aggressor_report,
)
from repro.systems import malbec_mini


class _FakeSpans:
    """Minimal stand-in for SpanRecorder: .events + by_packet()."""

    def __init__(self, events):
        self.events = events

    def by_packet(self):
        out = {}
        for e in self.events:
            out.setdefault(e["pid"], []).append(e)
        return out


def _ev(pid, ev, t, layer="switch", **attrs):
    e = {"pid": pid, "ev": ev, "t": float(t), "layer": layer}
    e.update(attrs)
    return e


def _three_hop_packet(pid=1, t0=0.0, mid=1, seq=0):
    """NIC -> switch A -> switch B -> host, with hand-picked waits."""
    t = t0
    return [
        _ev(pid, "injected", t + 0, layer="nic", src=0, dst=9, tc=0,
            mid=mid, seq=seq, attempt=1),
        _ev(pid, "voq_enqueue", t + 10, layer="nic", port="I0->0"),
        _ev(pid, "arbitrated", t + 15, layer="nic", port="I0->0"),
        _ev(pid, "wire_tx", t + 20, layer="nic", port="I0->0", bytes=256),
        _ev(pid, "switch_rx", t + 30, sw=0),
        _ev(pid, "routed", t + 33, sw=0),
        _ev(pid, "voq_enqueue", t + 35, port="L0->1"),
        _ev(pid, "arbitrated", t + 50, port="L0->1"),
        _ev(pid, "wire_tx", t + 55, port="L0->1", bytes=256),
        _ev(pid, "switch_rx", t + 65, sw=1),
        _ev(pid, "routed", t + 68, sw=1),
        _ev(pid, "voq_enqueue", t + 70, port="H1->9"),
        _ev(pid, "arbitrated", t + 90, port="H1->9"),
        _ev(pid, "wire_tx", t + 95, port="H1->9", bytes=256),
        _ev(pid, "delivered", t + 105, layer="nic", src=0, dst=9),
    ]


def test_three_hop_budgets_match_hand_computed_waits():
    budgets = attribute_packets(_FakeSpans(_three_hop_packet()))
    assert len(budgets) == 1
    b = budgets[0]
    assert (b.src, b.dst, b.mid, b.seq) == (0, 9, 1, 0)
    assert b.total_ns == 105.0
    # every gap lands in exactly one stage (values from the event times)
    assert b.stages["host_inject"] == 15.0   # 10 inject wait + 5 nic arb
    assert b.stages["voq_wait"] == 35.0      # 15 @ L0->1 + 20 @ H1->9
    assert b.stages["arbitration"] == 4.0    # 2 per routed->voq_enqueue
    assert b.stages["wire"] == 45.0          # 3x (serialize + propagate)
    assert b.stages["switch"] == 6.0         # 3 per switch_rx->routed
    assert b.stages["retry"] == 0.0
    assert b.stages["other"] == 0.0
    # the partition property: budgets sum exactly to the total
    assert b.stage_sum() == b.total_ns
    # per-port wait attribution feeds the victim report
    assert b.port_waits == {"L0->1": 15.0, "H1->9": 20.0}


def test_retry_chain_folds_into_one_logical_packet():
    # first attempt never delivers; the clone (fresh pid, same mid/seq)
    # injected 200 ns later does
    first = _three_hop_packet(pid=1, t0=0.0)[:4]  # truncated: no delivery
    second = _three_hop_packet(pid=2, t0=200.0)
    second[0]["attempt"] = 2
    budgets = attribute_packets(_FakeSpans(first + second))
    assert len(budgets) == 1
    b = budgets[0]
    assert b.pid == 2 and b.attempts == 2
    assert b.stages["retry"] == 200.0  # first injection -> delivering one
    assert b.total_ns == 305.0         # measured from the FIRST injection
    assert b.stage_sum() == b.total_ns


def test_report_aggregates_and_sums_within_tolerance():
    events = []
    for pid in (1, 2, 3):
        events += _three_hop_packet(pid=pid, t0=1000.0 * pid,
                                    mid=pid, seq=0)
    rep = attribution_report(_FakeSpans(events))
    assert rep.overall.n == 3
    assert rep.overall.total_mean_ns == 105.0
    assert rep.check_sum(tol_ns=1e-9)
    assert rep.per_flow[(0, 9)].n == 3
    text = rep.render()
    assert "Latency attribution" in text and "voq_wait" in text


def test_victim_report_ranks_shared_ports():
    victim = _three_hop_packet(pid=1, mid=1)
    # an aggressor flow pushing bytes through the victim's worst port
    aggressor = [
        _ev(9, "injected", 0.0, layer="nic", src=3, dst=9, tc=0,
            mid=9, seq=0, attempt=1),
        _ev(9, "wire_tx", 40.0, port="H1->9", bytes=4096),
        _ev(9, "wire_tx", 60.0, port="H1->9", bytes=4096),
        _ev(9, "delivered", 80.0, layer="nic", src=3, dst=9),
    ]
    rep = victim_aggressor_report(_FakeSpans(victim + aggressor),
                                  victims={(0, 9)})
    assert rep.n_victim_pkts == 1
    assert rep.victim_mean_ns == 105.0
    # ranked by victim VOQ wait: H1->9 (20 ns) over L0->1 (15 ns)
    assert rep.shared_ports[0] == ("H1->9", 20.0, 8192.0)
    assert rep.shared_ports[1] == ("L0->1", 15.0, 0.0)
    assert "H1->9" in rep.render()


# -- acceptance criterion on a real simulation --------------------------------


def test_real_run_stage_budgets_sum_within_1ns():
    fabric = malbec_mini().build()
    obs = fabric.attach_observer()
    n = fabric.topology.n_nodes
    for i in range(n):  # bisection: node i -> opposite half
        fabric.send(i, (i + n // 2) % n, 16 * KiB)
    fabric.sim.run()
    obs.stop()
    rep = obs.attribution()
    assert rep.overall.n > 0
    assert rep.check_sum(tol_ns=1.0)  # ISSUE acceptance criterion
    # and per packet the partition is exact up to float noise
    for b in attribute_packets(obs.spans):
        assert abs(b.stage_sum() - b.total_ns) < 1e-6
    # every stage that should appear in a healthy run does
    means = rep.overall.stage_means_ns
    for stage in ("host_inject", "voq_wait", "wire", "switch"):
        assert means[stage] > 0.0, stage
    assert set(means) == set(STAGES)


def test_unrelated_link_fault_leaves_stage_budgets_unchanged():
    """A dead link no flow uses moves no packet, so no stage budget."""

    def run(fail):
        fabric = malbec_mini().build()
        obs = fabric.attach_observer()
        key = next(k for k in sorted(fabric.links) if k[0] == "local")
        if fail:
            fabric.fail_link(key)
        n = fabric.topology.n_nodes
        for i in range(n):
            fabric.send(i, (i + n // 2) % n, 16 * KiB)
        fabric.sim.run()
        obs.stop()
        unused = all(p.pkts_sent == 0 for p in fabric.links[key].ports)
        return obs.attribution().overall, unused

    healthy, unused = run(False)
    faulted, _ = run(True)
    assert unused  # the failed link carries none of this traffic
    assert healthy.n == faulted.n > 0
    assert faulted.stage_means_ns == healthy.stage_means_ns
    assert faulted.stage_percentiles == healthy.stage_percentiles


def test_unsampled_and_undelivered_packets_are_skipped():
    # a packet with only mid-stream events (sampled-out head) yields no budget
    events = [
        _ev(5, "switch_rx", 10.0, sw=0),
        _ev(5, "routed", 12.0, sw=0),
    ]
    assert attribute_packets(_FakeSpans(events)) == []
    rep = attribution_report(_FakeSpans(events))
    assert rep.overall.n == 0
    assert "no delivered sampled packets" in rep.render()
    assert rep.check_sum()
