"""Switch and output-port queueing model.

This is the *fast* switch model used for whole-fabric simulation: a
switch is a routing function plus a fixed pipeline latency (the 350 ns
the paper measures for Rosetta, Fig. 2), and each output port is a
serializing transmitter with

* one queue per traffic class (virtual output queueing means a packet
  only ever waits behind packets for the *same* output, which is exactly
  what per-output egress queues model);
* credit-based link-level flow control toward the downstream input
  buffer, partitioned per traffic class and per virtual channel;
* a :class:`~repro.core.traffic_classes.TcScheduler` arbitrating between
  traffic classes (priority, DRR on guarantees, caps) — built only when
  there is something to arbitrate: a port with one uncapped class has
  none.

Virtual channels implement the standard dragonfly deadlock-avoidance
scheme: a packet's VC equals the number of switch hops taken so far, so
buffer dependencies always point from lower to higher VCs and can never
cycle.  The cycle-accurate *internal* model of the Rosetta tile grid
(row buses, 16:8 column crossbars, request/grant) lives separately in
:mod:`repro.core.rosetta` and is used for the Figure 2 reproduction.

Tree saturation — the mechanism behind the paper's Aries victim numbers
— emerges naturally here: when an incast fills the input buffers of the
last-hop switch, upstream ports lose credits and stall, their queues
fill, and any victim packet that shares one of those buffers waits.
Ports and switches are observed through one ``probe`` slot each
(:mod:`repro.probe`).

A port has one send body, :meth:`OutputPort._try_send`: the busy/up
guard, then either the single-class branch (one uncapped class: serve
the head when it fits downstream) or the scheduler branch (several
classes, or a capped one), then one shared tail that takes the credit,
marks, replays LLR errors and starts serialization.  The same body runs
on enqueue, at the end of every transmission, on a wakeup and on
recovery; ``tests/oracles/delivery.py`` keeps an independent copy that
the delivery equivalence suite compares it against.

The delivery-path event handlers (a port's ``_on_sent`` and its
receiver's ``receive``, a pool's ``release``, a switch's ``_forward``)
are bound once at construction and stored, so scheduling an event
allocates no bound method for the cyclic collector to walk.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Sequence

from ..core.traffic_classes import TcScheduler, TrafficClass
from ..sim import Simulator, stable_hash
from .buffers import VcBufferPool

__all__ = ["OutputPort", "Switch", "NUM_VCS", "VC_RESERVE_BYTES"]

#: Dedicated escape buffer per VC per wire (two MTU packets).  The small
#: per-VC reserve keeps the network deadlock-free; the big shared pool
#: (LinkSpec.buffer_bytes) is what congestion actually fills.
VC_RESERVE_BYTES = 8400.0

#: Max switch traversals on any allowed path (local, global, local,
#: global, local, plus the destination switch) — one VC per hop.
NUM_VCS = 6


def _return_credit(sim: Simulator, pkt) -> None:
    """Hand the input-buffer slot *pkt* still occupies back to the wire
    it arrived on (the credit flies back over that wire)."""
    up = pkt.arrival_port
    if up is not None:
        sim.schedule(
            up.prop_delay,
            up.credits[pkt.tc]._release,
            pkt.size,
            pkt.arrival_vc,
            pkt.arrival_buf_shared,
        )


class OutputPort:
    """Transmit side of one unidirectional wire, plus the downstream
    input buffer it is credit-flow-controlled against."""

    __slots__ = (
        "sim",
        "owner",
        "kind",
        "rx",
        "_sent",
        "_deliver",
        "bandwidth",
        "prop_delay",
        "queues",
        "credits",
        "scheduler",
        "busy",
        "backlog",
        "mark_threshold",
        "bytes_sent",
        "pkts_sent",
        "marks_set",
        "name",
        "_probe",
        "_retry_armed",
        "_retry_timer",
        "_single_tc",
        "_plain",
        "_mark_at",
        "_q0",
        "_pool0",
        "error_rate",
        "replay_latency",
        "replays",
        "_err_rng",
        "up",
        "pkts_dropped",
    )

    def __init__(
        self,
        sim: Simulator,
        owner,
        kind: str,
        rx,
        bandwidth: float,
        prop_delay: float,
        classes: Sequence[TrafficClass],
        buffer_bytes: float,
        mark_threshold: float = float("inf"),
        name: str = "",
        pools: Optional[List[VcBufferPool]] = None,
        error_rate: float = 0.0,
        replay_latency: float = 200.0,
        seed: int = 0,
    ):
        if kind not in ("host", "local", "global", "inject"):
            raise ValueError(f"unknown port kind {kind!r}")
        self.sim = sim
        self.owner = owner
        self.kind = kind
        self.rx = rx  # downstream entity with .receive(pkt, from_port)
        self.bandwidth = bandwidth
        self.prop_delay = prop_delay
        ntc = len(classes)
        self.queues: List[deque] = [deque() for _ in range(ntc)]
        # credits[tc] models the downstream per-TC input buffer: a shared
        # pool plus per-VC escape reserves (see repro.network.buffers).
        # When *pools* is given (Aries-style switch-shared ingress memory)
        # several wires into the same switch draw from one pool, which is
        # what lets transit congestion starve unrelated arrivals there.
        if pools is not None:
            self.credits = pools
        else:
            self.credits = [
                VcBufferPool(buffer_bytes, VC_RESERVE_BYTES, NUM_VCS)
                for _ in range(ntc)
            ]
        # With one uncapped class, arbitration is trivial (serve the head
        # whenever credits fit) and the DRR/EWMA bookkeeping is
        # unobservable, so the port builds no scheduler.
        self._single_tc = ntc == 1 and classes[0].max_share >= 1.0
        self.scheduler: Optional[TcScheduler] = (
            None if self._single_tc else TcScheduler(classes, bandwidth)
        )
        # the two handlers every transmission schedules, bound once
        self._sent = self._on_sent
        self._deliver = rx.receive
        self.busy = False
        self.backlog = 0.0  # queued + in-service bytes at this port
        self.mark_threshold = mark_threshold
        self.bytes_sent = 0
        self.pkts_sent = 0
        self.marks_set = 0
        self.name = name
        self._probe = None
        self._retry_armed = False
        self._retry_timer = None
        # Link-level reliability: transient frame errors are replayed
        # locally (LLR, paper §II-F).  Zero-cost when error_rate == 0.
        self.replay_latency = replay_latency
        self.replays = 0
        self._err_rng = None
        # Fault state (repro.faults): an up wire behaves exactly as before;
        # a failed one refuses new transmissions and has dropped its queue.
        self.up = True
        self.pkts_dropped = 0
        # Aliases for the single-TC queue and pool (the lists are never
        # replaced after construction) and a precomputed mark gate.
        self._q0 = self.queues[0]
        self._pool0 = self.credits[0]
        # One comparison replaces the two-clause mark check: a non-host
        # port can never mark, so its gate is +inf.
        self._mark_at = mark_threshold if kind == "host" else float("inf")
        self.set_error_rate(error_rate, seed)  # also sets _plain

    # -- probe plumbing -----------------------------------------------------
    #
    # ``_plain`` gates head-checked credit wakeups (see ``_arm_retry``):
    # one uncapped class, wire up, no LLR, no probe — the only state in
    # which a wasted wakeup has no side effect, so the pool may skip it.

    def _refresh_plain(self) -> None:
        plain = (
            self._single_tc
            and self.up
            and self._err_rng is None
            and self._probe is None
        )
        if not plain and self._retry_armed and self._retry in self._pool0._waiters:
            # blocked and leaving the plain regime, outside which a wasted
            # wakeup has side effects: wake on every release, in place
            self._pool0._waiters[self._retry] = None
        self._plain = plain

    @property
    def probe(self):
        """Observer slot (repro.probe); None = zero-overhead path."""
        return self._probe

    @probe.setter
    def probe(self, value) -> None:
        self._probe = value
        self._refresh_plain()

    # -- congestion telemetry (adaptive routing reads these) ---------------

    @property
    def credited_bytes(self) -> float:
        """Bytes sitting in the downstream buffer, not yet forwarded.

        This is the "request queue credits" congestion signal the paper
        describes (§II-A/§II-C): it sees one hop beyond the local queue.
        """
        used = 0.0
        for pool in self.credits:
            used += pool._in_use
        return used

    def congestion_score(self) -> float:
        """Estimated cost of routing another packet through this port:
        local backlog plus downstream credit occupancy (both counters)."""
        if self._single_tc:
            return self.backlog + self._pool0._in_use
        used = 0.0
        for pool in self.credits:
            used += pool._in_use
        return self.backlog + used

    # -- data path ----------------------------------------------------------

    def enqueue(self, pkt) -> None:
        self.queues[pkt.tc].append(pkt)
        self.backlog += pkt.size
        if self._probe is not None:
            self._probe.enqueued(self, pkt)
        if not self.busy:
            self._try_send()

    def _head_size(self, tc: int) -> Optional[float]:
        q = self.queues[tc]
        return q[0].size if q else None

    def _eligible(self, tc: int) -> bool:
        pkt = self.queues[tc][0]
        return self.credits[tc].can_fit(pkt.vc, pkt.size)

    def _try_send(self) -> None:
        """Arbitrate, take the credit and start serializing the next packet."""
        if self.busy or not self.up:
            return
        if self._single_tc:
            # Trivial arbitration, so no scheduler: one uncapped class
            # sends its head whenever the head fits downstream.
            q = self._q0
            if not q:
                return
            head = q[0]
            pool = self._pool0
            size = head.size
            # inlined VcBufferPool.can_fit(head.vc, size)
            if (
                pool.shared_avail < size
                and pool.reserve_avail[head.vc] < size
            ):
                self._arm_retry()
                return
            # a single uncapped class never arms an uncap timer, so only
            # an armed port has anything to clear
            if self._retry_armed:
                self._clear_retry()
            pkt = q.popleft()
        else:
            tc = self.scheduler.select(
                self.sim.now, self._head_size, self._eligible
            )
            if tc is None:
                self._arm_retry()
                return
            # Progress: clear the retry arming so the next blockage
            # re-arms.  (A stale one-shot listener may still fire later;
            # _retry is guarded on the armed flag, so it is a no-op.)
            self._clear_retry()
            q = self.queues[tc]
            pool = self.credits[tc]
            pkt = q.popleft()
            if not q:
                self.scheduler.reset_deficit(tc)
        if not pool.acquire(pkt):
            raise RuntimeError("scheduler selected an ineligible queue")
        # Endpoint-congestion marking: a deep queue at a host-facing port
        # is endpoint congestion, and every packet that had to wait in it
        # carries the mark back to its source in the ack (paper §II-D).
        probe = self._probe
        if self.backlog > self._mark_at:
            pkt.marked = True
            self.marks_set += 1
            if probe is not None:
                probe.marked(self, pkt)
        if probe is not None:
            probe.arbitrated(self, pkt)
        self.busy = True
        size = pkt.size
        wire_time = size / self.bandwidth
        if self._err_rng is not None:
            # LLR: geometric number of transmissions; each corrupted one
            # costs a replay round-trip plus reserialization, all local
            # to this link (no end-to-end retransmission).
            while self._err_rng.random() < self.error_rate:
                wire_time += self.replay_latency + size / self.bandwidth
                self.replays += 1
        sim = self.sim
        sim.push(sim.now + wire_time, self._sent, (pkt,))

    def _arm_retry(self) -> None:
        """Wake up when credits return or a rate cap unblocks."""
        if self._retry_armed:
            return
        pending = False
        # a plain port's wasted wakeup would only re-arm it, so the pool
        # may skip it: hand over the head (else wake on every release)
        gate = self._plain
        for tc, q in enumerate(self.queues):
            if q:
                pending = True
                self.credits[tc].notify_on_release(q[0] if gate else None, self._retry)
        if not pending:
            return
        self._retry_armed = True
        # Credit-stall accounting (repro.observe): the port has traffic it
        # cannot move because the downstream buffer is out of space (or a
        # rate cap is pending).  Zero-cost unless a probe is attached.
        if self._probe is not None:
            self._probe.stall_begin(self)
        if self._single_tc:
            return  # an uncapped class is never token-bucket blocked
        t = self.scheduler.earliest_uncap_time(self.sim.now, self._head_size)
        if t is not None and t > self.sim.now:
            self._retry_timer = self.sim.schedule_cancellable(
                t - self.sim.now, self._retry
            )

    def _clear_retry(self) -> None:
        """Progress was made: disarm, cancelling any uncap-time timer so
        it never pops through the event queue as a stale no-op."""
        if self._retry_armed and self._probe is not None:
            self._probe.stall_end(self)
        self._retry_armed = False
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None

    def _retry(self) -> None:
        # A one-shot listener armed before an earlier blockage cleared can
        # fire long after the port state has moved on (the pool keeps it
        # until the next release).  Only an *armed* port wants the wakeup.
        if not self._retry_armed:
            return
        self._clear_retry()
        if not self.busy:
            self._try_send()

    def _on_sent(self, pkt) -> None:
        self.busy = False
        size = pkt.size
        self.backlog -= size
        self.bytes_sent += size
        self.pkts_sent += 1
        if self._probe is not None:
            self._probe.wire_tx(self, pkt)
        # The packet has physically left the owner: return the credit for
        # the upstream buffer slot it occupied (credit flies back over the
        # upstream wire).
        # The pool slot must be released as it was acquired on that wire —
        # the downstream switch bumps pkt.vc/buf_shared before this runs,
        # so the arrival_* fields carry the original indices.
        sim = self.sim
        now = sim.now
        up = pkt.arrival_port
        if up is not None:
            sim.push(
                now + up.prop_delay,
                up.credits[pkt.tc]._release,
                (size, pkt.arrival_vc, pkt.arrival_buf_shared),
            )
        prop = self.prop_delay
        pkt.prop_sum += prop
        sim.push(now + prop, self._deliver, (pkt, self))
        self._try_send()

    # -- fault control (repro.faults) ---------------------------------------
    #
    # None of these is ever called on a healthy run; the only hot-path cost
    # of the fault machinery is the ``self.up`` check in ``_try_send``.

    def fail(self) -> None:
        """Fail-stop this wire: drop every queued packet and refuse new
        transmissions until :meth:`recover`.

        A frame already in serialization is allowed to land (its delivery
        event is committed); everything still queued is dropped, releasing
        the upstream buffer slots the packets were holding — end-to-end
        recovery, not link-level flow control, is responsible for them now.
        An injection-side port (``kind == 'inject'``) instead *parks*
        packets enqueued while down: they sit in host memory at zero cost
        and drain on recovery.
        """
        if not self.up:
            return
        self.up = False
        self._refresh_plain()
        if self._retry_armed and self._probe is not None:
            self._probe.stall_end(self)  # close the open credit-stall span
        self._retry_armed = False
        if self.kind == "inject":
            return  # park, don't drop: the queue is host memory
        scheduler = self.scheduler
        for tc, q in enumerate(self.queues):
            if not q:
                continue
            while q:
                self._drop_queued(q.popleft())
            if scheduler is not None:
                scheduler.reset_deficit(tc)

    def _drop_queued(self, pkt) -> None:
        self.backlog -= pkt.size
        self.pkts_dropped += 1
        _return_credit(self.sim, pkt)
        if self._probe is not None:
            self._probe.dropped(self, pkt)

    def recover(self) -> None:
        """Bring a failed wire back; parked traffic resumes immediately."""
        if self.up:
            return
        self.up = True
        self._refresh_plain()
        if not self.busy:
            self._try_send()

    def set_bandwidth(self, bandwidth: float) -> None:
        """Degrade/restore the wire rate (affects future serializations)."""
        if not bandwidth > 0:  # NaN fails this too
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        if self.scheduler is not None:
            self.scheduler.set_port_bandwidth(bandwidth)

    def set_error_rate(self, rate: float, seed: int = 0) -> None:
        """Set the instantaneous frame error rate (BER storm / restore)."""
        if not (0.0 <= rate < 1.0):
            raise ValueError("frame_error_rate must be in [0, 1)")
        self.error_rate = rate
        if rate == 0.0:
            self._err_rng = None
        elif self._err_rng is None:
            self._err_rng = random.Random(stable_hash("llr", seed, self.name))
        self._refresh_plain()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OutputPort({self.name or self.kind}, backlog={self.backlog:.0f}B)"


class Switch:
    """A switch in the fabric: routing function + pipeline latency.

    Port maps are filled in by the fabric builder:

    * ``port_to_switch[s]`` — the local port towards switch *s* (same group);
    * ``ports_to_group[g]`` — global ports towards group *g* (may be several);
    * ``port_to_node[n]`` — the host port for directly attached node *n*.
    """

    __slots__ = (
        "sim",
        "id",
        "group",
        "latency",
        "router",
        "port_to_switch",
        "ports_to_group",
        "port_to_node",
        "rt_global",
        "rt_detour",
        "pkts_forwarded",
        "pkts_dropped",
        "up",
        "probe",
        "_fwd",
    )

    def __init__(self, sim: Simulator, switch_id: int, group: int, latency: float, router):
        self.sim = sim
        self.id = switch_id
        self.group = group
        self.latency = latency
        self.router = router
        self.port_to_switch: Dict[int, OutputPort] = {}
        self.ports_to_group: Dict[int, Sequence[OutputPort]] = {}
        self.port_to_node: Dict[int, OutputPort] = {}
        # Live routing candidate tables, filled lazily by AdaptiveRouter
        # from the wiring and the ports' ``up`` flags, and cleared by it
        # whenever the topology's health_epoch moves:
        #: target group -> (ports, direct, rerouted): the live global
        #: links to that group, or else the live local ports towards its
        #: live gateway switches (ascending id), and whether the minimal
        #: route is gone
        self.rt_global: Dict[int, tuple] = {}
        #: destination switch -> tuple of live local ports towards the
        #: other same-group switches that still reach it (the detours)
        self.rt_detour: Dict[int, tuple] = {}
        self.pkts_forwarded = 0
        #: packets discarded here (dead switch, or no live route); always 0
        #: on a healthy fabric — end-to-end recovery re-injects them
        self.pkts_dropped = 0
        #: fault state (repro.faults): a down switch drops every arrival
        self.up = True
        #: observer slot (repro.probe); None = zero-overhead path
        self.probe = None
        self._fwd = self._forward  # bound once: every arrival schedules it

    def all_ports(self) -> List[OutputPort]:
        out = list(self.port_to_switch.values())
        for ports in self.ports_to_group.values():
            out.extend(ports)
        out.extend(self.port_to_node.values())
        return out

    def receive(self, pkt, from_port: OutputPort) -> None:
        """Wire delivery: the packet now occupies this switch's input buffer."""
        pkt.arrival_port = from_port
        pkt.arrival_vc = pkt.vc
        pkt.arrival_buf_shared = pkt.buf_shared
        if not self.up:
            # A frame that was already in flight when the switch died lands
            # on a dead input stage and is lost (e2e recovery re-sends it).
            self._drop(pkt)
            return
        if self.probe is not None:
            self.probe.switch_rx(self, pkt)
        sim = self.sim
        sim.push(sim.now + self.latency, self._fwd, (pkt,))

    def _forward(self, pkt) -> None:
        hops = pkt.hops + 1
        pkt.hops = hops
        # VC = hops taken so far; strictly increasing => no buffer cycles.
        pkt.vc = hops if hops < NUM_VCS else NUM_VCS - 1
        self.pkts_forwarded += 1
        out = self.router.route(self, pkt)
        if out is None:
            # No live port towards the destination (degraded fabric only:
            # the router never returns None on a healthy topology).
            self._drop(pkt)
            return
        out.enqueue(pkt)

    def _drop(self, pkt) -> None:
        """Discard *pkt*, releasing the input-buffer slot it occupies."""
        self.pkts_dropped += 1
        _return_credit(self.sim, pkt)
        if self.probe is not None:
            self.probe.dropped(self, pkt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Switch(id={self.id}, group={self.group})"
