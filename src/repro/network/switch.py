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
  traffic classes (priority, DRR on guarantees, caps).

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
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence

from ..core.traffic_classes import TcScheduler, TrafficClass
from ..sim import Simulator
from .buffers import VcBufferPool
from .packet import recycle_packet

__all__ = ["OutputPort", "Switch", "NUM_VCS", "VC_RESERVE_BYTES"]

#: Dedicated escape buffer per VC per wire (two MTU packets).  The small
#: per-VC reserve keeps the network deadlock-free; the big shared pool
#: (LinkSpec.buffer_bytes) is what congestion actually fills.
VC_RESERVE_BYTES = 8400.0

#: Max switch traversals on any allowed path (local, global, local,
#: global, local, plus the destination switch) — one VC per hop.
NUM_VCS = 6


class OutputPort:
    """Transmit side of one unidirectional wire, plus the downstream
    input buffer it is credit-flow-controlled against."""

    __slots__ = (
        "sim",
        "owner",
        "kind",
        "rx",
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
        "recycle_drops",
        "_score_val",
        "_score_ok",
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
        self.scheduler = TcScheduler(classes, bandwidth)
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
        # With one uncapped class, arbitration is trivial (serve the head
        # whenever credits fit) and the DRR/EWMA bookkeeping is
        # unobservable, so _try_send bypasses the scheduler entirely.
        self._single_tc = ntc == 1 and classes[0].max_share >= 1.0
        # Link-level reliability: transient frame errors are replayed
        # locally (LLR, paper §II-F).  Zero-cost when error_rate == 0.
        self.error_rate = error_rate
        self.replay_latency = replay_latency
        self.replays = 0
        self._err_rng = None
        # Fault state (repro.faults): an up wire behaves exactly as before;
        # a failed one refuses new transmissions and has dropped its queue.
        self.up = True
        self.pkts_dropped = 0
        #: recycle unobserved drops?  Off under end-to-end reliability,
        #: whose tracker holds packet references (set by the injector).
        self.recycle_drops = True
        # congestion_score cache: adaptive routing scores the same port
        # several times per arbitration tick (one per candidate set it
        # appears in).  The score is a pure function of backlog and pool
        # occupancy, so it is cached until either moves: backlog
        # mutations clear _score_ok here, pool mutations clear it through
        # the pool's watcher list.  The cached value is the exact float
        # the uncached path computed.
        self._score_val = 0.0
        self._score_ok = False
        for pool in self.credits:
            pool.watchers.append(self)
        if error_rate > 0.0:
            import random as _random

            from ..sim.rng import stable_hash

            self._err_rng = _random.Random(stable_hash("llr", seed, name))
        # Delivery fast path plumbing: aliases for the single-TC queue and
        # pool (the lists are never replaced after construction), a
        # precomputed mark gate, and the folded `_plain` dispatch flag.
        self._q0 = self.queues[0]
        self._pool0 = self.credits[0]
        # One comparison replaces the two-clause mark check: a non-host
        # port can never mark, so its gate is +inf.
        self._mark_at = mark_threshold if kind == "host" else float("inf")
        self._refresh_plain()

    # -- probe plumbing -----------------------------------------------------
    #
    # ``_plain`` routes ``_try_send`` onto the allocation-free branch: one
    # uncapped class, wire up, no LLR, no probe — the state in which the
    # general path's scheduler/probe/LLR branches are all dead.

    def _refresh_plain(self) -> None:
        self._plain = (
            self._single_tc
            and self.up
            and self._err_rng is None
            and self._probe is None
        )

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
        local backlog plus downstream credit occupancy.

        The result is cached per arbitration tick: valid until a backlog
        or pool-occupancy mutation invalidates it.
        """
        if self._score_ok:
            return self._score_val
        used = 0.0
        for pool in self.credits:
            used += pool._in_use
        val = self.backlog + used
        self._score_val = val
        self._score_ok = True
        return val

    # -- data path ----------------------------------------------------------

    def enqueue(self, pkt) -> None:
        self.queues[pkt.tc].append(pkt)
        self.backlog += pkt.size
        self._score_ok = False
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
        # Plain regime (single uncapped class, wire up, no probe, no
        # LLR): the arbitrate→credit→serialize cycle with every dead
        # branch removed, enqueuing through the engine's sim.push()
        # producer contract.  Must stay op-for-op equivalent to
        # _try_send_general in this state — the reference port in
        # tests/oracles/delivery.py always runs the general body, and the
        # delivery-path equivalence suite pins the two bit-identical.
        if self._plain:
            if self.busy:
                return
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
            # inlined _clear_retry(): probe is None and the uncap timer is
            # never armed for a single uncapped class, so only the flag.
            self._retry_armed = False
            pkt = q.popleft()
            if not q:
                self.scheduler.reset_deficit(0)
            if not pool.acquire(pkt):
                raise RuntimeError("scheduler selected an ineligible queue")
            if self.backlog > self._mark_at:
                pkt.marked = True
                self.marks_set += 1
            self.busy = True
            sim = self.sim
            sim.push(sim.now + size / self.bandwidth, self._on_sent, (pkt,))
            return
        self._try_send_general()

    def _try_send_general(self) -> None:
        if self.busy or not self.up:
            return
        if self._single_tc:
            # Trivial arbitration: one uncapped class.  select() would
            # always return 0 for a non-empty eligible queue; the DRR
            # deficit / EWMA state it maintains is unobservable here.
            q = self.queues[0]
            if not q:
                return
            head = q[0]
            if not self.credits[0].can_fit(head.vc, head.size):
                self._arm_retry()
                return
            self._clear_retry()
            tc = 0
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
            pkt = q.popleft()
        if not q:
            self.scheduler.reset_deficit(tc)
        if not self.credits[tc].acquire(pkt):
            raise RuntimeError("scheduler selected an ineligible queue")
        # Endpoint-congestion marking: a deep queue at a host-facing port
        # is endpoint congestion, and every packet that had to wait in it
        # carries the mark back to its source in the ack (paper §II-D).
        if self.backlog > self.mark_threshold and self.kind == "host":
            pkt.marked = True
            self.marks_set += 1
            if self._probe is not None:
                self._probe.marked(self, pkt)
        if self._probe is not None:
            self._probe.arbitrated(self, pkt)
        self.busy = True
        wire_time = pkt.size / self.bandwidth
        if self._err_rng is not None:
            # LLR: geometric number of transmissions; each corrupted one
            # costs a replay round-trip plus reserialization, all local
            # to this link (no end-to-end retransmission).
            while self._err_rng.random() < self.error_rate:
                wire_time += self.replay_latency + pkt.size / self.bandwidth
                self.replays += 1
        self.sim.schedule(wire_time, self._on_sent, pkt)

    def _arm_retry(self) -> None:
        """Wake up when credits return or a rate cap unblocks."""
        if self._retry_armed:
            return
        pending = False
        for tc, q in enumerate(self.queues):
            if q:
                pending = True
                self.credits[tc].notify_on_release(q[0].vc, self._retry)
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
        self._score_ok = False
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
                up.credits[pkt.tc].release,
                (size, pkt.arrival_vc, pkt.arrival_buf_shared),
            )
        prop = self.prop_delay
        pkt.prop_sum += prop
        sim.push(now + prop, self.rx.receive, (pkt, self))
        # Tail send: in the plain regime start the next serialization
        # inline (the _try_send body with the busy/up/plain checks already
        # settled — busy was cleared three lines up); otherwise fall back
        # to the general dispatcher.
        if self._plain:
            q = self._q0
            if not q:
                return
            head = q[0]
            pool = self._pool0
            size = head.size
            if (
                pool.shared_avail < size
                and pool.reserve_avail[head.vc] < size
            ):
                self._arm_retry()
                return
            self._retry_armed = False
            pkt = q.popleft()
            if not q:
                self.scheduler.reset_deficit(0)
            if not pool.acquire(pkt):
                raise RuntimeError("scheduler selected an ineligible queue")
            if self.backlog > self._mark_at:
                pkt.marked = True
                self.marks_set += 1
            self.busy = True
            sim.push(now + size / self.bandwidth, self._on_sent, (pkt,))
            return
        self._try_send_general()

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
        for tc, q in enumerate(self.queues):
            if not q:
                continue
            while q:
                self._drop_queued(q.popleft())
            self.scheduler.reset_deficit(tc)

    def _drop_queued(self, pkt) -> None:
        self.backlog -= pkt.size
        self._score_ok = False
        self.pkts_dropped += 1
        up = pkt.arrival_port
        if up is not None:
            # The packet still occupied the input-buffer slot of the wire
            # it arrived on; hand the credit back exactly as _on_sent does.
            self.sim.schedule(
                up.prop_delay,
                up.credits[pkt.tc].release,
                pkt.size,
                pkt.arrival_vc,
                pkt.arrival_buf_shared,
            )
        if self._probe is not None:
            self._probe.dropped(self, pkt)
        elif self.recycle_drops and not pkt.traced:
            # Dropped with nobody watching: the packet is dead the moment
            # the credit-release event above is scheduled (it captured
            # scalars, not the packet), so recycle it.
            recycle_packet(pkt)

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
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        self.scheduler.set_port_bandwidth(bandwidth)

    def set_error_rate(self, rate: float, seed: int = 0) -> None:
        """Set the instantaneous frame error rate (BER storm / restore)."""
        if not (0.0 <= rate < 1.0):
            raise ValueError("frame_error_rate must be in [0, 1)")
        self.error_rate = rate
        if rate == 0.0:
            self._err_rng = None
        elif self._err_rng is None:
            import random as _random

            from ..sim.rng import stable_hash

            self._err_rng = _random.Random(stable_hash("llr", seed, self.name))
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
        "rt_gateway_ports",
        "rt_detour_ports",
        "pkts_forwarded",
        "pkts_dropped",
        "up",
        "probe",
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
        # Routing candidate tables (filled lazily by AdaptiveRouter once
        # the fabric has wired the port maps; pure functions of the
        # installed wiring, so they are never invalidated):
        #: target group -> tuple of local ports towards that group's
        #: gateway switches, in ascending gateway-id order
        self.rt_gateway_ports: Dict[int, tuple] = {}
        #: destination switch -> tuple of local ports towards every other
        #: same-group switch (the non-minimal detour candidates)
        self.rt_detour_ports: Dict[int, tuple] = {}
        self.pkts_forwarded = 0
        #: packets discarded here (dead switch, or no live route); always 0
        #: on a healthy fabric — end-to-end recovery re-injects them
        self.pkts_dropped = 0
        #: fault state (repro.faults): a down switch drops every arrival
        self.up = True
        #: observer slot (repro.probe); None = zero-overhead path
        self.probe = None

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
        sim.push(sim.now + self.latency, self._forward, (pkt,))

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
        up = pkt.arrival_port
        if up is not None:
            self.sim.schedule(
                up.prop_delay,
                up.credits[pkt.tc].release,
                pkt.size,
                pkt.arrival_vc,
                pkt.arrival_buf_shared,
            )
        if self.probe is not None:
            self.probe.dropped(self, pkt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Switch(id={self.id}, group={self.group})"
