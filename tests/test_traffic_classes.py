"""Unit tests for traffic classes and the egress scheduler."""

import math
from collections import deque

import pytest

from repro.core.traffic_classes import (
    TcScheduler,
    TrafficClass,
    default_traffic_classes,
    validate_classes,
)
from repro.network.units import KiB
from repro.systems import malbec_mini


class FakeQueues:
    """Minimal queue set driving the scheduler like a port would."""

    def __init__(self, n):
        self.queues = [deque() for _ in range(n)]

    def push(self, tc, size):
        self.queues[tc].append(size)

    def head_size(self, i):
        return self.queues[i][0] if self.queues[i] else None

    def serve(self, sched, now=0.0, eligible=lambda i: True):
        tc = sched.select(now, self.head_size, eligible)
        if tc is None:
            return None
        size = self.queues[tc].popleft()
        if not self.queues[tc]:
            sched.reset_deficit(tc)
        return tc, size


def run_shares(classes, loads, n_packets=2000, size=4096.0):
    """Serve n_packets from always-backlogged queues; return byte shares."""
    q = FakeQueues(len(classes))
    sched = TcScheduler(classes, port_bandwidth=25.0)
    served = [0.0] * len(classes)
    now = 0.0
    for tc_i, backlogged in enumerate(loads):
        if backlogged:
            for _ in range(4):
                q.push(tc_i, size)
    for _ in range(n_packets):
        got = q.serve(sched, now)
        if got is None:
            now += size / 25.0
            continue
        tc, s = got
        served[tc] += s
        q.push(tc, size)  # keep it backlogged
        now += s / 25.0
    total = sum(served)
    return [s / total for s in served]


def test_trafficclass_validation():
    with pytest.raises(ValueError):
        TrafficClass(min_share=1.5)
    with pytest.raises(ValueError):
        TrafficClass(max_share=0.0)
    with pytest.raises(ValueError):
        TrafficClass(min_share=0.5, max_share=0.3)
    with pytest.raises(ValueError):
        validate_classes([TrafficClass(min_share=0.6), TrafficClass(min_share=0.6)])


def test_default_classes():
    classes = default_traffic_classes(3)
    assert len(classes) == 3
    assert all(tc.min_share == 0.0 for tc in classes)


def test_single_class_gets_everything():
    shares = run_shares([TrafficClass()], [True])
    assert shares == [1.0]


def test_equal_classes_share_equally():
    classes = [TrafficClass(name="a"), TrafficClass(name="b")]
    shares = run_shares(classes, [True, True])
    assert shares[0] == pytest.approx(0.5, abs=0.06)


def test_paper_figure14_80_10_split_gives_80_20():
    """TC1 min 80%, TC2 min 10%: the unreserved 10% goes to the class
    with the lowest share, so the observed split is 80/20 (Fig. 14)."""
    classes = [
        TrafficClass(name="tc1", min_share=0.8),
        TrafficClass(name="tc2", min_share=0.1),
    ]
    shares = run_shares(classes, [True, True])
    assert shares[0] == pytest.approx(0.80, abs=0.05)
    assert shares[1] == pytest.approx(0.20, abs=0.05)


def test_idle_class_bandwidth_flows_to_active():
    classes = [
        TrafficClass(name="tc1", min_share=0.8),
        TrafficClass(name="tc2", min_share=0.1),
    ]
    shares = run_shares(classes, [False, True])
    assert shares[1] == pytest.approx(1.0)


def test_priority_preempts_lower_levels():
    classes = [
        TrafficClass(name="bulk", priority=0),
        TrafficClass(name="latency", priority=1),
    ]
    shares = run_shares(classes, [True, True])
    assert shares[1] == pytest.approx(1.0)


def test_max_share_cap_enforced():
    classes = [
        TrafficClass(name="capped", max_share=0.25),
        TrafficClass(name="open"),
    ]
    shares = run_shares(classes, [True, True], n_packets=4000)
    assert shares[0] <= 0.3


def test_capped_class_alone_respects_cap_via_uncap_time():
    """With only a capped class backlogged, select returns None while the
    bucket is empty and earliest_uncap_time says when to retry."""
    classes = [TrafficClass(name="capped", max_share=0.1)]
    sched = TcScheduler(classes, port_bandwidth=25.0)
    q = FakeQueues(1)
    q.push(0, 4096.0)
    # Drain the bucket.
    now = 0.0
    sends = 0
    for _ in range(100):
        tc = sched.select(now, q.head_size, lambda i: True)
        if tc is None:
            break
        sends += 1
    assert sends >= 1
    t = sched.earliest_uncap_time(now, q.head_size)
    assert t is not None and t > now


def test_uncap_time_past_a_shortfall_below_clock_resolution():
    """A bucket one ulp short of the head needs a wait of ~3e-13 ns,
    which `now + wait` rounds away at t = 5.6 us: the uncap time must
    still lie after *now*, and one refill there must cover the gap."""
    sched = TcScheduler([TrafficClass("capped", max_share=0.3)], 12.5)
    now = 5610.133333333333
    head = 4158.0
    sched._bucket[0] = math.nextafter(head, 0.0)
    sched._bucket_t = now
    assert now + (head - sched._bucket[0]) / 3.75 == now
    t = sched.earliest_uncap_time(now, lambda i: head)
    assert t > now
    assert sched.select(t, lambda i: head, lambda i: True) == 0


def test_capped_class_never_strands_its_queue():
    """Every node sends 64 KiB to node i + 40 on one class capped at
    30%: a port whose token-bucket wait rounded to zero used to arm no
    timer and wait for a credit release that never came (70/80)."""
    cfg = malbec_mini().with_(classes=[TrafficClass("capped", max_share=0.3)])
    fabric = cfg.build()
    n = fabric.topology.n_nodes
    msgs = [fabric.send(i, (i + 40) % n, 64 * KiB) for i in range(n)]
    fabric.sim.run()
    assert sum(m.complete for m in msgs) == n
    fabric.assert_quiescent()


def test_ineligible_queue_skipped():
    """Credit-blocked queues must not stall other classes (isolation)."""
    classes = [TrafficClass(name="a"), TrafficClass(name="b")]
    sched = TcScheduler(classes, port_bandwidth=25.0)
    q = FakeQueues(2)
    q.push(0, 4096.0)
    q.push(1, 4096.0)
    tc = sched.select(0.0, q.head_size, lambda i: i == 1)
    assert tc == 1


def test_select_none_when_all_empty():
    sched = TcScheduler([TrafficClass()], port_bandwidth=25.0)
    q = FakeQueues(1)
    assert sched.select(0.0, q.head_size, lambda i: True) is None


def test_three_way_guarantees():
    classes = [
        TrafficClass(name="a", min_share=0.5),
        TrafficClass(name="b", min_share=0.3),
        TrafficClass(name="c", min_share=0.1),
    ]
    shares = run_shares(classes, [True, True, True], n_packets=6000)
    assert shares[0] == pytest.approx(0.5, abs=0.06)
    assert shares[1] == pytest.approx(0.3, abs=0.06)
    # c gets its 10% plus the unreserved 10%
    assert shares[2] == pytest.approx(0.2, abs=0.06)
