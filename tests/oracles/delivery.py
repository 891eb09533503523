"""Straight-line reference delivery path (executable specification).

:class:`ReferenceNIC` and :class:`ReferenceOutputPort` must behave
bit-identically to the production :class:`~repro.network.nic.NIC` and
:class:`~repro.network.switch.OutputPort` — same packets, same event
times, same event order — which ``tests/test_delivery_path_equivalence.py``
enforces event for event (healthy, under fault schedules with
retransmissions, in the paced/marked regimes, and with several traffic
classes, rate caps and LLR replays).  Keep these boring: the port's send
body is its own copy (it calls no production send method), every probe
call is an attribute check through the public ``probe`` slot, and every
event goes through :meth:`Simulator.schedule`.

Fabrics built inside :func:`reference_delivery` use them.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.core.congestion_control import PairState
from repro.core.traffic_classes import TcScheduler
from repro.network import fabric as fabric_mod
from repro.network.nic import NIC
from repro.network.packet import Packet
from repro.network.switch import OutputPort

__all__ = [
    "ReferenceNIC",
    "ReferenceOutputPort",
    "reference_delivery",
]


class ReferenceOutputPort(OutputPort):
    """Packet-at-a-time reference port.

    Its own straight-line arbitrate→credit→serialize body (no inlined
    fit check, no aliases, the mark gate spelled out), an ``enqueue``
    that arbitrates whenever the port is idle (the production port skips
    that behind a blocked single-class head), every credit wait wakes
    on every release of its pool (no head gating, so its pools never
    take the gated early exit), and it keeps a scheduler even for one
    uncapped class, resetting its deficit whenever a queue empties (the
    production port has none there); the equivalence suite pins
    :class:`OutputPort`'s one send body, its enqueue and its gated
    wakeups bit-identical to this in every regime: one or several
    classes, caps, LLR replays, probes and faults.
    """

    __slots__ = ()

    def __init__(self, sim, owner, kind, rx, bandwidth, prop_delay, classes,
                 *args, **kwargs):
        super().__init__(sim, owner, kind, rx, bandwidth, prop_delay, classes,
                         *args, **kwargs)
        self.scheduler = TcScheduler(classes, bandwidth)

    def enqueue(self, pkt) -> None:
        self.queues[pkt.tc].append(pkt)
        self.backlog += pkt.size
        if self.probe is not None:
            self.probe.enqueued(self, pkt)
        if not self.busy:
            self._try_send()

    def _try_send(self) -> None:
        if self.busy or not self.up:
            return
        if self._single_tc:
            q = self.queues[0]
            if not q:
                return
            head = q[0]
            if not self.credits[0].can_fit(head.vc, head.size):
                self._arm_retry()
                return
            self._clear_retry()
            tc = 0
        else:
            tc = self.scheduler.select(
                self.sim.now, self._head_size, self._eligible
            )
            if tc is None:
                self._arm_retry()
                return
            self._clear_retry()
            q = self.queues[tc]
        pkt = q.popleft()
        if not q:
            self.scheduler.reset_deficit(tc)
        if not self.credits[tc].acquire(pkt):
            raise RuntimeError("scheduler selected an ineligible queue")
        if self.backlog > self.mark_threshold and self.kind == "host":
            pkt.marked = True
            self.marks_set += 1
            if self.probe is not None:
                self.probe.marked(self, pkt)
        if self.probe is not None:
            self.probe.arbitrated(self, pkt)
        self.busy = True
        wire_time = pkt.size / self.bandwidth
        if self._err_rng is not None:
            while self._err_rng.random() < self.error_rate:
                wire_time += self.replay_latency + pkt.size / self.bandwidth
                self.replays += 1
        self.sim.schedule(wire_time, self._on_sent, pkt)

    def _arm_retry(self) -> None:
        if self._retry_armed:
            return
        pending = False
        for tc, q in enumerate(self.queues):
            if q:
                pending = True
                self.credits[tc].notify_on_release(None, self._retry)
        if not pending:
            return
        self._retry_armed = True
        if self.probe is not None:
            self.probe.stall_begin(self)
        if self._single_tc:
            return
        t = self.scheduler.earliest_uncap_time(self.sim.now, self._head_size)
        if t is not None and t > self.sim.now:
            self._retry_timer = self.sim.schedule_cancellable(
                t - self.sim.now, self._retry
            )

    def _on_sent(self, pkt) -> None:
        self.busy = False
        self.backlog -= pkt.size
        self.bytes_sent += pkt.size
        self.pkts_sent += 1
        if self.probe is not None:
            self.probe.wire_tx(self, pkt)
        up = pkt.arrival_port
        if up is not None:
            self.sim.schedule(
                up.prop_delay,
                up.credits[pkt.tc].release,
                pkt.size,
                pkt.arrival_vc,
                pkt.arrival_buf_shared,
            )
        pkt.prop_sum += self.prop_delay
        self.sim.schedule(self.prop_delay, self.rx.receive, pkt, self)
        self._try_send()


class ReferenceNIC(NIC):
    """Straight-line reference NIC: pump, receive and ack path."""

    __slots__ = ()

    def _pump(self, state: PairState) -> None:
        now = self.sim.now
        while state.pending_count and state.in_flight < max(state.window, 1.0):
            paced = state.window < 1.0
            if paced and now < state.next_send_ns:
                if not state.pace_armed:
                    state.pace_armed = True
                    self.sim.schedule(state.next_send_ns - now, self._pace_fire, state)
                return
            pkt = self._next_pending(state)
            state.in_flight += 1
            pkt.inject_time = now
            self.bytes_injected += pkt.size
            self.pkts_injected += 1
            if self.probe is not None:
                self.probe.injected(self, pkt, state)
            if self.retrans is not None:
                self.retrans.on_inject(pkt, state)
            if paced:
                state.next_send_ns = now + pkt.size / self.out_port.bandwidth / state.window
            self.out_port.enqueue(pkt)

    def receive(self, pkt: Packet, from_port: OutputPort) -> None:
        self.sim.schedule(
            from_port.prop_delay,
            from_port.credits[pkt.tc].release,
            pkt.size,
            pkt.vc,
            pkt.buf_shared,
        )
        self.bytes_delivered += pkt.size
        self.pkts_delivered += 1
        msg = pkt.message
        if self.retrans is not None and not self.retrans.on_deliver(pkt):
            msg = None
        if msg is not None:
            msg.delivered_packets += 1
            if msg.first_arrival_time is None:
                msg.first_arrival_time = self.sim.now
            if msg.complete and msg.complete_time is None:
                msg.complete_time = self.sim.now
                self.msgs_completed += 1
                cb, msg.on_complete = msg.on_complete, None
                if cb is not None:
                    cb(msg)
        if self.probe is not None:
            self.probe.delivered(self, pkt, msg)
        src_nic = self.nic_lookup(pkt.src)
        ack_latency = pkt.prop_sum + pkt.hops * self.switch_latency + self.ack_overhead
        self.sim.schedule(ack_latency, src_nic.on_ack, pkt)

    def on_ack(self, pkt: Packet) -> None:
        if self.retrans is not None and not self.retrans.on_ack(pkt):
            return
        state = self.pairs[pkt.dst]
        state.in_flight -= 1
        state.last_activity_ns = self.sim.now
        if pkt.marked:
            self.acks_marked += 1
        else:
            self.acks_clean += 1
        self.cc.on_ack(state, pkt.marked, self.sim.now)
        if self.probe is not None:
            self.probe.acked(self, pkt, state)
        self._pump(state)


@contextlib.contextmanager
def reference_delivery():
    """Build fabrics with the reference NIC and port while the block runs."""
    with mock.patch.object(fabric_mod, "NIC", ReferenceNIC), mock.patch.object(
        fabric_mod, "OutputPort", ReferenceOutputPort
    ):
        yield
