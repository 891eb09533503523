"""Unit tests for OutputPort in isolation (fake receiver, one wire)."""

import pytest

from repro.core.traffic_classes import TrafficClass
from repro.network.buffers import VcBufferPool
from repro.network.packet import Packet
from repro.network.switch import NUM_VCS, OutputPort
from repro.probe import Probe
from repro.sim import Simulator


class FakeRx:
    """Sink that records arrivals and releases buffer slots immediately."""

    def __init__(self):
        self.got = []

    def receive(self, pkt, from_port):
        self.got.append((pkt.pid, from_port.sim.now))
        from_port.credits[pkt.tc].release(pkt.size, pkt.vc, pkt.buf_shared)


class HoldRx(FakeRx):
    """Sink that records arrivals and never releases buffer slots."""

    def receive(self, pkt, from_port):
        self.got.append((pkt.pid, from_port.sim.now))


def make_port(sim, bandwidth=10.0, prop=5.0, buffer_bytes=100_000, **kw):
    rx = FakeRx()
    port = OutputPort(
        sim,
        owner=None,
        kind=kw.pop("kind", "local"),
        rx=rx,
        bandwidth=bandwidth,
        prop_delay=prop,
        classes=kw.pop("classes", [TrafficClass()]),
        buffer_bytes=buffer_bytes,
        **kw,
    )
    return port, rx


def pkt(size=1000, tc=0, vc=0):
    p = Packet(0, 1, size - 62, tc=tc)
    p.vc = vc
    return p


def test_single_packet_timing():
    sim = Simulator()
    port, rx = make_port(sim, bandwidth=10.0, prop=5.0)
    p = pkt(1000)
    port.enqueue(p)
    sim.run()
    # serialization 1000/10 = 100ns + prop 5ns
    assert rx.got == [(p.pid, 105.0)]
    assert port.bytes_sent == 1000
    assert port.backlog == 0


def test_fifo_order_and_back_to_back_serialization():
    sim = Simulator()
    port, rx = make_port(sim, bandwidth=10.0, prop=0.0)
    pkts = [pkt(500) for _ in range(4)]
    for p in pkts:
        port.enqueue(p)
    sim.run()
    assert [pid for pid, _ in rx.got] == [p.pid for p in pkts]
    times = [t for _, t in rx.got]
    # each packet takes 50ns on the wire, no gaps
    assert times == [50.0, 100.0, 150.0, 200.0]


def test_backlog_accounting_during_queueing():
    sim = Simulator()
    port, _ = make_port(sim, bandwidth=1.0)
    for _ in range(3):
        port.enqueue(pkt(1000))
    assert port.backlog == 3000
    sim.run()
    assert port.backlog == 0


def test_credit_stall_until_release():
    """With a tiny downstream buffer, the port stalls between packets."""
    sim = Simulator()

    class SlowRx(FakeRx):
        def receive(self, pkt, from_port):
            self.got.append((pkt.pid, from_port.sim.now))
            # hold the buffer slot for 1000ns before releasing
            from_port.sim.schedule(
                1000.0, from_port.credits[pkt.tc].release, pkt.size, pkt.vc, pkt.buf_shared
            )

    rx = SlowRx()
    # shared pool fits one 5000B packet; the vc0 escape reserve (8400B)
    # absorbs exactly one more; the third must wait for a release.
    port = OutputPort(
        sim, None, "local", rx, 10.0, 0.0, [TrafficClass()], buffer_bytes=5000
    )
    a, b, c = pkt(5000), pkt(5000), pkt(5000)
    for p in (a, b, c):
        port.enqueue(p)
    sim.run()
    t_b, t_c = rx.got[1][1], rx.got[2][1]
    # c had to wait out the 1000ns buffer hold; b did not
    assert t_c >= t_b + 500.0
    assert not a.buf_shared or a.buf_shared  # slot origin recorded either way
    assert not b.buf_shared  # b rode the escape reserve


def test_host_port_marks_above_threshold():
    sim = Simulator()
    rx = FakeRx()
    port = OutputPort(
        sim, None, "host", rx, 10.0, 0.0, [TrafficClass()],
        buffer_bytes=1_000_000, mark_threshold=1500.0,
    )
    pkts = [pkt(1000) for _ in range(4)]
    for p in pkts:
        port.enqueue(p)
    sim.run()
    # the first packet dequeues instantly (backlog 1000 < 1500: clean);
    # the second sees 3000 queued behind it -> marked; the last drains
    # from an emptying queue -> clean again
    assert not pkts[0].marked
    assert pkts[1].marked
    assert not pkts[-1].marked
    assert port.marks_set >= 1


def test_local_port_never_marks():
    sim = Simulator()
    port, _ = make_port(sim, kind="local", mark_threshold=10.0)
    pkts = [pkt(1000) for _ in range(4)]
    for p in pkts:
        port.enqueue(p)
    sim.run()
    assert not any(p.marked for p in pkts)
    assert port.marks_set == 0


def test_scheduler_only_when_there_is_something_to_arbitrate():
    """A port with one uncapped class serves its head whenever it fits,
    so it builds no scheduler; several classes, or one capped class,
    need one.  Re-rating and failing work either way."""
    for classes, has_scheduler in (
        ([TrafficClass()], False),
        ([TrafficClass(), TrafficClass()], True),
        ([TrafficClass(max_share=0.5)], True),
    ):
        port, _ = make_port(Simulator(), classes=classes)
        assert (port.scheduler is not None) == has_scheduler, classes
        port.set_bandwidth(5.0)
        port.fail()
        port.recover()


def test_invalid_kind_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        OutputPort(sim, None, "warp", FakeRx(), 1.0, 0.0, [TrafficClass()], 1000)


def test_stale_retry_wakeup_is_harmless():
    """A one-shot credit listener armed before an earlier blockage cleared
    can fire long after the port moved on; it must not double-send."""
    sim = Simulator()
    port, rx = make_port(sim, bandwidth=10.0, prop=0.0)
    # Leftover listener from a blockage that already resolved: registered
    # while the port is NOT armed (exactly what the pool keeps around).
    port.credits[0].notify_on_release(None, port._retry)
    p1, p2 = pkt(1000), pkt(1000)
    port.enqueue(p1)  # starts serializing immediately
    port.enqueue(p2)
    # the first delivery's credit release fires the stale listener
    sim.run()
    assert [pid for pid, _ in rx.got] == [p1.pid, p2.pid]
    assert port.pkts_sent == 2
    assert port.backlog == 0


def test_blocked_port_is_woken_once_after_fail_and_recover():
    """A port blocked, failed, recovered and blocked again must hold one
    wakeup on the pool, not two: ``port._retry`` is a fresh bound method
    on every access, so deduplicating by its ``id`` let the second arming
    pile up behind the first, and each release then woke the port twice
    for as long as it stayed blocked."""

    class StallLog(Probe):
        def __init__(self):
            self.begins = 0

        def stall_begin(self, port):
            self.begins += 1

    sim = Simulator()
    # An injection port parks its queue across fail(); the shared pool
    # fits one 5000B packet and the vc0 reserve one more, so the third
    # blocks.
    port = OutputPort(
        sim, None, "inject", HoldRx(), 10.0, 0.0, [TrafficClass()],
        buffer_bytes=5000,
    )
    log = port.probe = StallLog()
    for _ in range(3):
        port.enqueue(pkt(5000))
    sim.run()
    assert port._retry_armed and log.begins == 1
    port.fail()
    port.recover()  # blocked again: re-arms
    assert port._retry_armed and log.begins == 2
    pool = port.credits[0]
    assert len(pool._waiters) == 1
    # a release too small to unblock the head wakes the port exactly once
    pool.release(1000, 0, was_shared=False)
    assert log.begins == 3
    assert len(pool._waiters) == 1


def test_unarmed_retry_call_is_a_noop():
    sim = Simulator()
    port, rx = make_port(sim)
    p = pkt(1000)
    # queue a packet without triggering enqueue's auto-send
    port.queues[0].append(p)
    port.backlog += p.size
    assert not port._retry_armed
    port._retry()  # stale wakeup with no arming: must be ignored
    sim.run()
    assert rx.got == []
    assert port.backlog == p.size


def test_fail_drops_queue_and_recover_resumes():
    sim = Simulator()
    port, rx = make_port(sim, bandwidth=10.0, prop=0.0)
    a, b, c = pkt(1000), pkt(1000), pkt(1000)
    port.enqueue(a)  # in serialization: its delivery is committed
    port.enqueue(b)
    port.enqueue(c)
    sim.schedule(10.0, port.fail)  # mid-way through a's wire time
    sim.run()
    # a lands (already on the wire); b and c were dropped
    assert [pid for pid, _ in rx.got] == [a.pid]
    assert port.pkts_dropped == 2
    assert port.backlog == 0
    # traffic enqueued while down parks until recovery
    d = pkt(1000)
    port.enqueue(d)
    sim.run()
    assert len(rx.got) == 1
    port.recover()
    sim.run()
    assert [pid for pid, _ in rx.got] == [a.pid, d.pid]


def test_inject_port_parks_instead_of_dropping():
    sim = Simulator()
    port, rx = make_port(sim, kind="inject", bandwidth=10.0, prop=0.0)
    a, b = pkt(1000), pkt(1000)
    port.fail()
    port.enqueue(a)
    port.enqueue(b)
    sim.run()
    assert rx.got == []
    assert port.pkts_dropped == 0  # host memory: nothing is lost
    assert port.backlog == 2000
    port.recover()
    sim.run()
    assert [pid for pid, _ in rx.got] == [a.pid, b.pid]


def test_set_bandwidth_rerates_the_wire():
    sim = Simulator()
    port, rx = make_port(sim, bandwidth=10.0, prop=0.0)
    port.set_bandwidth(2.0)
    p = pkt(1000)
    port.enqueue(p)
    sim.run()
    assert rx.got == [(p.pid, 500.0)]  # 1000B at 2 B/ns
    with pytest.raises(ValueError):
        port.set_bandwidth(0.0)


def test_congestion_score_includes_downstream_occupancy():
    sim = Simulator()
    rx = HoldRx()  # never releases: bytes stay "credited" downstream
    port = OutputPort(
        sim, None, "local", rx, 10.0, 0.0, [TrafficClass()], buffer_bytes=10_000
    )
    port.enqueue(pkt(1000))
    sim.run()
    assert port.backlog == 0
    assert port.credited_bytes == 1000
    assert port.congestion_score() == 1000


def shared_pool_ports(sim, n, kind="local"):
    """*n* ports into one switch-shared pool that is already full: the
    shared region and VC 0's reserve are taken, so every 1000B head on
    VC 0 blocks until a release."""
    pool = VcBufferPool(5000, 2000, NUM_VCS)
    assert pool.acquire(pkt(5000)) and pool.acquire(pkt(2000))
    rx = HoldRx()
    ports = [
        OutputPort(
            sim, None, kind, rx, 10.0, 0.0, [TrafficClass()],
            buffer_bytes=5000, pools=[pool],
        )
        for _ in range(n)
    ]
    return pool, ports, rx


def test_release_wakes_only_the_waiter_it_can_unblock(monkeypatch):
    """Armed single-class ports without a probe hand their head to the
    pool, so a release checks each head inline and calls ``_retry`` only
    for one that now fits."""
    woken = []
    retry = OutputPort._retry

    def logged_retry(port):
        woken.append(port)
        retry(port)

    monkeypatch.setattr(OutputPort, "_retry", logged_retry)
    sim = Simulator()
    pool, ports, rx = shared_pool_ports(sim, 3)
    heads = [pkt(1000) for _ in ports]
    for port, head in zip(ports, heads):
        port.enqueue(head)
    # no probe: each blocked port hands its pool the head it waits on
    assert all(
        p._retry_armed and pool._waiters[p._retry] is head
        for p, head in zip(ports, heads)
    )
    # too small for any head: no wakeup at all, wake order kept
    pool.release(500, 0, was_shared=True)
    assert woken == []
    assert list(pool._waiters.items()) == [
        (p._retry, head) for p, head in zip(ports, heads)
    ]
    # fits the first head only: that port alone is woken, and its send
    # takes the space back before the others are checked
    pool.release(500, 0, was_shared=True)
    assert woken == [ports[0]]
    assert list(pool._waiters) == [p._retry for p in ports[1:]]
    sim.run()
    assert [pid for pid, _ in rx.got] == [heads[0].pid]
    assert not ports[0]._retry_armed
    assert ports[1]._retry_armed and ports[2]._retry_armed


def test_failed_port_loses_its_gated_place_in_wake_order():
    """A port that leaves the plain regime while blocked must wake on the
    next release like before, so a fail/recover cycle re-queues it behind
    the ports that stayed blocked.  Keeping its gated entry instead would
    let it jump the queue on recovery."""
    sim = Simulator()
    pool, (a, b), rx = shared_pool_ports(sim, 2, kind="inject")
    pa, pb = pkt(1000), pkt(1000)
    a.enqueue(pa)
    b.enqueue(pb)
    assert list(pool._waiters) == [a._retry, b._retry]
    a.fail()  # parks its queue; its wait turns back into always-wake
    assert pool._waiters[a._retry] is None
    pool.release(500, 0, was_shared=True)  # fits neither head
    a.recover()  # blocks again, now behind b
    assert list(pool._waiters) == [b._retry, a._retry]
    pool.release(500, 0, was_shared=True)  # fits one head
    sim.run()
    assert [pid for pid, _ in rx.got] == [pb.pid]
    assert a._retry_armed and not b._retry_armed


def test_release_wakes_heads_until_its_bytes_are_taken(monkeypatch):
    """A release into a gated pool keeps waking heads that fit while the
    slice it grew stays above its pre-release level, and a release into
    a VC's reserve wakes only heads on that VC."""
    woken = []
    retry = OutputPort._retry

    def logged_retry(port):
        woken.append(port)
        retry(port)

    monkeypatch.setattr(OutputPort, "_retry", logged_retry)
    sim = Simulator()
    pool, ports, rx = shared_pool_ports(sim, 4)
    assert pool.acquire(pkt(2000, vc=1))  # VC 1's reserve is full too
    a, b, c, d = ports
    a.enqueue(pkt(1000))
    b.enqueue(pkt(1000, vc=1))
    c.enqueue(pkt(100))
    d.enqueue(pkt(1000))
    assert list(pool._waiters) == [p._retry for p in ports]
    # 1100B shared: a takes 1000, b's 1000B head does not fit the 100B
    # left, c's 100B head takes them, and d's is not even checked
    pool.release(1100, 0, was_shared=True)
    assert woken == [a, c]
    assert list(pool._waiters) == [b._retry, d._retry]
    # VC 1's reserve: only b's head is on that VC
    pool.release(1000, 1, was_shared=False)
    assert woken == [a, c, b]
    assert list(pool._waiters) == [d._retry]
    sim.run()
    assert sorted(p.pkts_sent for p in ports) == [0, 1, 1, 1]
