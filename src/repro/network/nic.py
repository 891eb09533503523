"""Network interface controller model.

The NIC is where the paper's congestion-control story lives on the send
side: every destination gets its own :class:`~repro.core.congestion_control.PairState`
with an outstanding-packet window managed by the configured
:class:`~repro.core.congestion_control.CongestionControl` strategy.  Packets
beyond the window wait in a per-destination pending queue in host
memory; acks returned by the receiving NIC (carrying the last-hop
congestion mark) drive the window.

On the receive side the NIC consumes packets at line rate (the wire
serialization at the last-hop switch port is the real bottleneck),
reassembles messages, fires completion callbacks, and sends the
end-to-end ack.  Acks travel a contention-free reverse path: the paper
notes ack overhead is ~4 bytes per forward packet, far below the level
where reverse-direction bandwidth matters.

End-to-end reliability (repro.faults): link-level retry repairs
transient corruption, but a fail-stopped link or switch loses packets
outright.  When a :class:`~repro.faults.FaultInjector` is attached it
arms ``self.retrans`` — an exponential-backoff retransmission timer that
re-injects stranded packets, with receiver-side duplicate suppression —
preserving the paper's "lossless to the application" behaviour under
faults.  ``retrans`` is None by default.  Observers attach through the
one ``probe`` slot (:mod:`repro.probe`).

Delivery fast path: :class:`NIC` is the production implementation —
``_pump``/``on_ack``/``receive`` are branch-lean and allocate nothing
but the packets ``_pump`` admits (cached effective window via
``PairState.eff_window``, ``probe`` and ``retrans`` read into locals,
event scheduling through ``sim.push`` with handlers bound once at
construction — the pool's ``_release``, the NIC's ``_ack`` — rather
than a fresh bound method per event).  A packet dies by reference count
once it is acked or dropped and nothing else holds it.  The
straight-line specification lives in ``tests/oracles/delivery.py``;
``tests/test_delivery_path_equivalence.py`` pins the two event-for-event.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.congestion_control import CongestionControl, PairState
from ..sim import Simulator
from .packet import Message, Packet
from .switch import OutputPort

__all__ = ["NIC"]


class NIC:
    """One network endpoint (a node's network interface)."""

    __slots__ = (
        "sim",
        "node",
        "cc",
        "switch_latency",
        "ack_overhead",
        "out_port",
        "pairs",
        "header_bytes",
        "bytes_injected",
        "bytes_delivered",
        "pkts_injected",
        "pkts_delivered",
        "acks_marked",
        "acks_clean",
        "nic_lookup",
        "idle_reset_ns",
        "probe",
        "retrans",
        "_ack",
    )

    def __init__(
        self,
        sim: Simulator,
        node: int,
        cc: CongestionControl,
        switch_latency: float,
        header_bytes: int,
        ack_overhead: float = 100.0,
        nic_lookup: Optional[Callable[[int], "NIC"]] = None,
        idle_reset_ns: float = 100_000.0,
    ):
        self.sim = sim
        self.node = node
        self.cc = cc
        self.switch_latency = switch_latency
        self.header_bytes = header_bytes
        #: fixed extra latency on the ack path (NIC processing, ack wire time)
        self.ack_overhead = ack_overhead
        self.out_port: Optional[OutputPort] = None  # set by the fabric builder
        self.pairs: Dict[int, PairState] = {}
        self.bytes_injected = 0
        self.bytes_delivered = 0
        self.pkts_injected = 0
        self.pkts_delivered = 0
        self.acks_marked = 0
        self.acks_clean = 0
        #: resolves a node id to its NIC (set by the fabric builder)
        self.nic_lookup = nic_lookup
        #: CC state for a pair idle this long resets to the initial window
        self.idle_reset_ns = idle_reset_ns
        #: observer slot (repro.probe); None = zero-overhead path
        self.probe = None
        #: end-to-end reliability (repro.faults); None = off
        self.retrans = None
        #: :meth:`on_ack` bound once: every delivery schedules it
        self._ack = self.on_ack

    # -- send side ----------------------------------------------------------

    def submit(self, msg: Message) -> None:
        """Queue a message for transmission (returns immediately)."""
        if msg.src != self.node:
            raise ValueError(f"message src {msg.src} submitted at NIC {self.node}")
        now = self.sim.now
        msg.submit_time = now
        if msg.dst == self.node:
            # Loopback: the paper's systems never self-send over the wire;
            # deliver after NIC processing only.
            self.sim.schedule(self.ack_overhead, self._deliver_loopback, msg)
            return
        state = self._pair(msg.dst)
        # Idle pairs age out: hardware tracking state for a quiet
        # destination resets, so a fresh burst starts at the initial
        # window again (this is what makes bursty congestion transiently
        # effective in the paper's Fig. 12).  The reset covers the whole
        # CC bookkeeping, not just the window: EcnCC's period counters
        # describe traffic from before the quiet period, and acting on
        # those stale marks would throttle the fresh burst for congestion
        # that is long gone.
        if (
            self.idle_reset_ns > 0
            and now - state.last_activity_ns > self.idle_reset_ns
        ):
            state.window = self.cc.initial_window()
            state.acks_since_update = 0
            state.marks_since_update = 0
            state.last_update_ns = now
        state.last_activity_ns = now
        # Lazy segmentation: park the generator, not 64 Packet objects.
        # _pump materializes packets one by one as the window admits them.
        state.pending_iters.append(msg.packets(self.header_bytes))
        state.pending_count += msg.npackets
        state.pending_bytes += msg.wire_bytes(self.header_bytes)
        self._pump(state)

    def _pair(self, dst: int) -> PairState:
        state = self.pairs.get(dst)
        if state is None:
            # last_update_ns anchors at pair creation: a 0.0 default would
            # put a pair born mid-sim instantly past EcnCC's update period,
            # letting a single marked first ack cut the window in half.
            state = PairState(
                window=self.cc.initial_window(), last_update_ns=self.sim.now
            )
            self.pairs[dst] = state
        return state

    def _next_pending(self, state: PairState) -> Packet:
        """Materialize the next queued packet (oldest message first)."""
        pkt = next(state.pending_iters[0])
        if pkt.is_last:
            state.pending_iters.popleft()
        state.pending_count -= 1
        state.pending_bytes -= pkt.size
        return pkt

    def _pump(self, state: PairState) -> None:
        # Admission fast path.  The unpaced regime (window >= 1, by far
        # the common case) compares in_flight against the cached
        # eff_window once per admitted packet and tests the probe and
        # retrans slots as locals; the paced regime keeps
        # the straight-line reference structure (it is throttled to at
        # most one packet per pacing interval by construction).
        if state._window >= 1.0:
            if not state.pending_count:
                return
            now = self.sim.now
            eff = state.eff_window
            enqueue = self.out_port.enqueue
            probe = self.probe
            retrans = self.retrans
            iters = state.pending_iters
            while state.in_flight < eff:
                # inlined _next_pending(state)
                pkt = next(iters[0])
                if pkt.is_last:
                    iters.popleft()
                state.pending_count -= 1
                size = pkt.size
                state.pending_bytes -= size
                state.in_flight += 1
                pkt.inject_time = now
                self.bytes_injected += size
                self.pkts_injected += 1
                if probe is not None:
                    probe.injected(self, pkt, state)
                if retrans is not None:
                    retrans.on_inject(pkt, state)
                enqueue(pkt)
                if not state.pending_count:
                    return
            return
        now = self.sim.now
        while state.pending_count and state.in_flight < state.eff_window:
            if now < state.next_send_ns:
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
            # Fractional window => rate pacing: one packet per
            # (serialization / window) interval.
            state.next_send_ns = now + pkt.size / self.out_port.bandwidth / state._window
            self.out_port.enqueue(pkt)

    def _pace_fire(self, state: PairState) -> None:
        state.pace_armed = False
        self._pump(state)

    def _reinject(self, pkt: Packet) -> None:
        """Put a retransmission clone on the wire, bypassing the window
        (the lost original still holds its in-flight slot).  Only ever
        called by the end-to-end reliability layer (repro.faults)."""
        pkt.inject_time = self.sim.now
        self.bytes_injected += pkt.size
        self.pkts_injected += 1
        if self.probe is not None:
            self.probe.injected(self, pkt, self._pair(pkt.dst))
        self.out_port.enqueue(pkt)

    def _deliver_loopback(self, msg: Message) -> None:
        msg.delivered_packets = msg.npackets
        msg.first_arrival_time = self.sim.now
        msg.complete_time = self.sim.now
        if msg.on_complete is not None:
            msg.on_complete(msg)

    # -- receive side ---------------------------------------------------------

    def receive(self, pkt: Packet, from_port: OutputPort) -> None:
        """Wire delivery at the destination NIC."""
        sim = self.sim
        now = sim.now
        # The NIC drains its RX buffer at line rate: free the last-hop
        # switch buffer slot right away (credit returns over the wire).
        # pkt.vc/buf_shared are still as the last-hop port acquired them
        # (only switches bump them), so they index the right pool here.
        sim.push(
            now + from_port.prop_delay,
            from_port.credits[pkt.tc]._release,
            (pkt.size, pkt.vc, pkt.buf_shared),
        )
        self.bytes_delivered += pkt.size
        self.pkts_delivered += 1
        msg = pkt.message
        retrans = self.retrans
        if retrans is not None and not retrans.on_deliver(pkt):
            # Duplicate of a packet that already arrived (the "lost"
            # original survived after all): suppress message accounting,
            # but still ack so the sender settles this attempt too.
            msg = None
        if msg is not None:
            msg.delivered_packets += 1
            if msg.first_arrival_time is None:
                msg.first_arrival_time = now
            if msg.delivered_packets >= msg.npackets and msg.complete_time is None:
                msg.complete_time = now
                if msg.on_complete is not None:
                    msg.on_complete(msg)
        if self.probe is not None:
            self.probe.delivered(self, pkt, msg)
        # End-to-end ack back to the source (contention-free reverse path:
        # wire propagation both ways + switch pipelines + NIC overhead).
        src_nic = self.nic_lookup(pkt.src)
        sim.push(
            now
            + pkt.prop_sum
            + pkt.hops * self.switch_latency
            + self.ack_overhead,
            src_nic._ack,
            (pkt,),
        )

    # -- ack path -------------------------------------------------------------

    def on_ack(self, pkt: Packet) -> None:
        retrans = self.retrans
        if retrans is not None and not retrans.on_ack(pkt):
            return  # ack for an attempt that was already settled
        state = self.pairs[pkt.dst]
        now = self.sim.now
        state.in_flight -= 1
        state.last_activity_ns = now
        if pkt.marked:
            self.acks_marked += 1
        else:
            self.acks_clean += 1
        self.cc.on_ack(state, pkt.marked, now)
        if self.probe is not None:
            self.probe.acked(self, pkt, state)
        self._pump(state)

    # -- introspection ----------------------------------------------------------

    def window(self, dst: int) -> float:
        """Current congestion window towards *dst* (diagnostics)."""
        state = self.pairs.get(dst)
        return state.window if state else self.cc.initial_window()

    def queued_bytes(self) -> float:
        """Bytes waiting in host memory for window space (diagnostics)."""
        return float(sum(s.pending_bytes for s in self.pairs.values()))

    def pending_packets(self) -> int:
        """Packets waiting in host memory for window space (diagnostics)."""
        return sum(s.pending_count for s in self.pairs.values())

    def blocked_pairs(self) -> int:
        """Destinations with queued traffic that the congestion window is
        currently holding back (diagnostics; sample-time only).  Pairs
        gated by the pacing timer count too: a fractional window with
        nothing in flight but an armed pace wakeup is window-blocked,
        not idle."""
        return sum(
            1
            for s in self.pairs.values()
            if s.pending_count and (s.in_flight >= s.eff_window or s.pace_armed)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NIC(node={self.node})"

