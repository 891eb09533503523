"""Property: a credit release wakes the ports the full walk would, in order.

A release on a pool whose waiters are all head-gated stops once the
slice it grew is back at its pre-release level, and removes the woken
entries in place; a pool with an ungated waiter calls every one of
those on every release, again in place.  Neither may be observable.
Several single-class ports share one pool (the Aries switch-shared
ingress buffer) and go through random enqueues of mixed sizes and VCs,
releases into the shared region and into VC reserves, partial
serialization, fail/recover, LLR on/off, and probes that alternate
between one that records credit stalls (so its port waits ungated) and
a bare one (gated); the same scenario then runs on
:class:`~tests.oracles.buffers.ReferencePool`, whose release detaches
the waiter dict and walks all of it.  Every ``_retry`` call, stall
begin and end, and delivery (in order, with its time), the pool's
waiter order after every step, and the final counters must match.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traffic_classes import TrafficClass
from repro.network.buffers import VcBufferPool
from repro.network.packet import Packet
from repro.network.switch import NUM_VCS, OutputPort
from repro.probe import Probe
from repro.sim import Simulator
from tests.oracles.buffers import ReferencePool

SHARED, RESERVE = 6000, 2000
SIZES = (100, 200, 300, 500, 700, 1000, 1500, 2000, 2500)
#: the shared region full in three chunks, then VCs 0-2's reserves full
FILLERS = ((2000, 0), (2000, 1), (2000, 2), (2000, 0), (2000, 1), (2000, 2))
MAX_PORTS = 5


class LoggedPort(OutputPort):
    """A production port that logs each ``_retry`` call it receives."""

    __slots__ = ("log",)

    def _retry(self) -> None:
        self.log.append(("retry", self.name, self.sim.now, self._retry_armed))
        OutputPort._retry(self)


class StallLog(Probe):
    """Logs each credit stall a port begins and ends."""

    def __init__(self, log):
        self.log = log

    def stall_begin(self, port):
        self.log.append(("stall_begin", port.name, port.sim.now))

    def stall_end(self, port):
        self.log.append(("stall_end", port.name, port.sim.now))


class Sink:
    """Records each arrival and keeps its credit for the scenario to
    release."""

    def __init__(self, log, held, labels):
        self.log, self.held, self.labels = log, held, labels

    def receive(self, pkt, from_port):
        self.log.append(("rx", from_port.name, from_port.sim.now, self.labels[pkt.pid]))
        self.held.append([pkt.size, pkt.vc, pkt.buf_shared])


def _packet(size, vc, labels):
    p = Packet(0, 1, size - 62)
    p.vc = vc
    labels[p.pid] = len(labels)
    return p


def play(pool_cls, kinds, ops):
    """Run *ops* against ports of *kinds* on one *pool_cls* pool.

    Returns ``(trace, stats)``: *trace* is everything observable, and
    *stats* counts the releases that found waiters by kind.
    """
    sim = Simulator()
    pool = pool_cls(SHARED, RESERVE, NUM_VCS)
    log, held, labels, steps = [], [], {}, []
    for size, vc in FILLERS:
        p = _packet(size, vc, labels)
        assert pool.acquire(p)
        held.append([size, vc, p.buf_shared])
    rx = Sink(log, held, labels)
    ports = []
    for i, kind in enumerate(kinds):
        port = LoggedPort(
            sim, None, kind, rx, 10.0, 0.0, [TrafficClass()],
            buffer_bytes=SHARED, name=f"p{i}", pools=[pool],
        )
        port.log = log
        ports.append(port)
    stats = {"gated": 0, "mixed": 0}

    def release(i, half):
        if not held:
            return
        credit = held[i % len(held)]
        size, vc, shared = credit
        if half and size >= 200:
            credit[0] = size - size // 2
            size //= 2
        else:
            held.remove(credit)
        if pool._waiters:
            stats["mixed" if None in pool._waiters.values() else "gated"] += 1
        log.append(("release", sim.now, size, vc, shared))
        pool.release(size, vc, shared)

    for op in ops:
        kind, args = op[0], op[1:]
        if kind == "enq":
            i, size, vc = args
            ports[i % len(ports)].enqueue(_packet(size, vc, labels))
        elif kind == "rel":
            release(*args)
        elif kind == "run":
            sim.run(None if args[0] is None else sim.now + args[0])
        elif kind == "fail":
            ports[args[0] % len(ports)].fail()
        elif kind == "recover":
            ports[args[0] % len(ports)].recover()
        elif kind == "probe":
            port = ports[args[0] % len(ports)]
            stalls = isinstance(port.probe, StallLog)
            port.probe = Probe() if stalls else StallLog(log)
        elif kind == "llr":
            port = ports[args[0] % len(ports)]
            port.set_error_rate(0.3 if port.error_rate == 0.0 else 0.0)
        steps.append([
            (fn.__self__.name, None if head is None else labels[head.pid])
            for fn, head in pool._waiters.items()
        ])
    sim.run()
    while held:  # hand back every credit, oldest first
        release(0, False)
        sim.run()
    final = (
        [fn.__self__.name for fn in pool._waiters],
        [(p.name, p._retry_armed, p.pkts_sent, p.pkts_dropped, p.backlog)
         for p in ports],
        pool.shared_avail, list(pool.reserve_avail), pool.in_use,
    )
    return (log, steps, final), stats


def _assert_same(kinds, ops):
    got, stats = play(VcBufferPool, kinds, ops)
    want, _ = play(ReferencePool, kinds, ops)
    log, ref_log = got[0], want[0]
    for i, (a, b) in enumerate(zip(log, ref_log)):
        assert a == b, f"first divergence at log entry {i}: {a!r} != {b!r}"
    assert len(log) == len(ref_log)
    assert got == want
    return stats


_port = st.integers(0, MAX_PORTS - 1)
_op = st.one_of(
    st.tuples(st.just("enq"), _port, st.sampled_from(SIZES), st.integers(0, 3)),
    st.tuples(st.just("enq"), _port, st.sampled_from(SIZES), st.integers(0, 3)),
    st.tuples(st.just("rel"), st.integers(0, 40), st.booleans()),
    st.tuples(st.just("rel"), st.integers(0, 40), st.booleans()),
    st.tuples(st.just("run"), st.sampled_from((0.0, 60.0, 150.0, None))),
    st.tuples(st.just("fail"), _port),
    st.tuples(st.just("recover"), _port),
    st.tuples(st.just("probe"), _port),
    st.tuples(st.just("llr"), _port),
)


@settings(max_examples=300, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(("local", "inject")), min_size=2, max_size=MAX_PORTS),
    ops=st.lists(_op, max_size=60),
)
def test_release_wakes_like_the_full_walk(kinds, ops):
    _assert_same(kinds, ops)


def _random_ops(rng, n, faults):
    ops = []
    for _ in range(n):
        r = rng.random()
        if r < 0.45:
            ops.append(("enq", rng.randrange(MAX_PORTS), rng.choice(SIZES),
                        rng.randrange(4)))
        elif r < 0.8:
            ops.append(("rel", rng.randrange(40), rng.random() < 0.3))
        elif r < 0.9 or not faults:
            ops.append(("run", rng.choice((0.0, 60.0, 150.0, None))))
        else:
            ops.append((rng.choice(("fail", "recover", "probe", "llr")),
                        rng.randrange(MAX_PORTS)))
    return ops


def test_long_scenarios_reach_both_walks():
    """Long seeded scenarios match the full walk, and between them take
    the gated walk and the walk with ungated waiters many times."""
    totals = {"gated": 0, "mixed": 0}
    for seed in range(12):
        rng = random.Random(seed)
        stats = _assert_same(
            ["local", "inject", "local", "inject", "local"],
            _random_ops(rng, 400, faults=seed % 2 == 1),
        )
        for key in totals:
            totals[key] += stats[key]
    assert totals["gated"] >= 100 and totals["mixed"] >= 50, totals
