"""Runtime invariant auditor: cross-layer conservation checks.

The simulator's layers each maintain redundant views of the same
physical quantities — an :class:`~repro.network.buffers.VcBufferPool`
keeps an O(1) occupancy counter next to the per-slice free-byte
counters it summarizes, an output port's ``backlog`` shadows its queues, the
adaptive router's live tables cache the per-port ``up`` flags, and the
NIC counters together encode packet conservation.  Each redundancy is a
performance or layering win, and each is a place where a bug can let
the views drift apart silently.  The auditor re-derives every one of
those quantities the slow way, on a periodic sweep and at targeted
event hooks, and reports any disagreement as a structured
:class:`InvariantViolation`.

Checkers are :class:`~repro.probe.Probe` subscribers on the fabric's
one probe slot per component (see :mod:`repro.probe`), so an unaudited
fabric is bit-identical to one built before this module existed
(enforced by ``tests/test_event_order_identity.py``).  Sweeps tick by
the simulator's one tick rule (:class:`repro.sim.PeriodicTick`), so an
audited run still drains beside any other sampler, and never mutate
state — an audited run delivers the same packets at the same times as
an unaudited one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..network.nic import NIC
from ..network.switch import OutputPort
from ..probe import Probe, ProbeFanout, records_stalls
from ..sim.engine import PeriodicTick

__all__ = [
    "InvariantViolation",
    "InvariantAuditor",
    "InvariantChecker",
    "CreditConservationChecker",
    "OccupancyChecker",
    "PacketConservationChecker",
    "TimestampChecker",
    "RoutingHealthChecker",
    "default_checkers",
]

#: float slack for integer-valued byte arithmetic (sizes are integers
#: stored in floats; exact in IEEE754, but slice counters may
#: round-trip through releases)
_EPS = 1e-6

#: default sweep cadence (simulated ns) — frequent enough to localize a
#: corruption to a short window, cheap enough to audit long runs
DEFAULT_SWEEP_INTERVAL_NS = 5_000.0


class InvariantViolation(AssertionError):
    """A structured invariant-violation report.

    Subclasses :class:`AssertionError` so an auditing run fails loudly
    under any test harness, while carrying machine-readable fields:

    * ``invariant`` — the checker's name (e.g. ``credit-conservation``);
    * ``entity`` — the fabric object that violated it (port/NIC/link);
    * ``tick`` — simulated time (ns) at which the check fired;
    * ``snapshot`` — the counter values the checker consulted.
    """

    def __init__(
        self,
        invariant: str,
        entity: str,
        tick: float,
        detail: str,
        snapshot: Optional[Dict[str, object]] = None,
    ):
        self.invariant = invariant
        self.entity = entity
        self.tick = tick
        self.detail = detail
        self.snapshot: Dict[str, object] = dict(snapshot or {})
        super().__init__(self.render())

    def render(self) -> str:
        lines = [
            f"invariant {self.invariant!r} violated by {self.entity} "
            f"at t={self.tick:.1f}ns: {self.detail}"
        ]
        for key in sorted(self.snapshot):
            lines.append(f"    {key} = {self.snapshot[key]!r}")
        return "\n".join(lines)


class InvariantChecker(Probe):
    """Base class for pluggable checkers.

    ``sweep`` runs on the periodic cadence (and immediately after every
    fault-injection event); ``final`` runs once when the auditor is
    asked for its end-of-run verdict.  Checkers may additionally
    override the NIC and port hook points of :class:`~repro.probe.Probe`
    (``injected``, ``delivered``, ``wire_tx`` …): the auditor attaches
    its checkers as the probe of every NIC and output port.
    """

    name = "invariant"

    def attach(self, auditor: "InvariantAuditor") -> None:
        self.auditor = auditor

    def sweep(self, fabric, report: Callable) -> None:  # pragma: no cover
        pass

    def final(self, fabric, report: Callable) -> None:
        self.sweep(fabric, report)


def _all_ports(fabric):
    for sw in fabric.switches:
        for port in sw.all_ports():
            yield f"switch {sw.id}", port
    for nic in fabric.nics:
        yield f"nic {nic.node}", nic.out_port


class CreditConservationChecker(InvariantChecker):
    """Per-pool credit conservation and occupancy bounds, and the credit
    wait rule.

    The maintained ``_in_use`` counter must equal the bytes held in the
    shared slice plus every per-VC reserve slice, re-derived from the
    slices' free-byte counters, and must stay inside
    ``[0, total]``.  Any drift means bytes were acquired or released
    without the mirror update.  Both sides steer the simulation: every
    adaptive-routing decision reads ``_in_use`` through
    ``congestion_score`` (uncached), and every release checks its gated
    waiters' heads against the free-byte counters to decide whom to wake.

    The wait rule (see :mod:`repro.network.buffers`): every gated waiter
    (an entry holding a head packet) belongs to an armed single-class
    port whose probe does not record stalls and holds that port's queue
    head, and every armed single-class port is registered on its pool
    with a head that fits neither the shared region nor its VC's
    reserve.  A release's early exit and the enqueue skip in
    :meth:`OutputPort.enqueue` both rest on it.  The checkers record no
    stalls, so an audited port still waits gated and a sweep checks
    both halves on the production credit path.
    """

    name = "credit-conservation"

    def sweep(self, fabric, report: Callable) -> None:
        seen = set()
        for where, port in _all_ports(fabric):
            if port._retry_armed and port._single_tc:
                self._check_armed(where, port, report)
            for tc, pool in enumerate(port.credits):
                # shared-switch-buffer pools appear under several ports
                if id(pool) in seen:
                    continue
                seen.add(id(pool))
                maintained, recomputed = pool.occupancy_breakdown()
                entity = f"{where} port {port.name or port.kind} tc{tc}"
                snap = {
                    "in_use_maintained": maintained,
                    "in_use_recomputed": recomputed,
                    "shared_in_use": pool.slice_in_use(),
                    "total": pool.total,
                }
                if abs(maintained - recomputed) > _EPS:
                    report(
                        self.name,
                        entity,
                        "maintained pool occupancy disagrees with the "
                        "buffer slices",
                        snap,
                    )
                if maintained < -_EPS or maintained > pool.total + _EPS:
                    report(
                        self.name,
                        entity,
                        f"pool occupancy {maintained:.0f}B outside "
                        f"[0, {pool.total:.0f}]B",
                        snap,
                    )
                for fn, head in pool._waiters.items():
                    if head is not None:
                        port = getattr(fn, "__self__", None)
                        self._check_gated(entity, pool, port, head, report)

    def _check_armed(self, where, port, report: Callable) -> None:
        pool = port._pool0
        q = port._q0
        head = q[0] if q else None
        if (
            head is not None
            and port._retry in pool._waiters
            and not pool.can_fit(head.vc, head.size)
        ):
            return
        report(
            self.name,
            f"{where} port {port.name or port.kind}",
            "armed single-class port is not waiting on a blocked head",
            {
                "queued_pkts": len(q),
                "registered": port._retry in pool._waiters,
                "head_size": None if head is None else head.size,
                "head_vc": None if head is None else head.vc,
                "shared_avail": pool.shared_avail,
                "reserve_avail": list(pool.reserve_avail),
            },
        )

    def _check_gated(self, entity, pool, port, head, report: Callable) -> None:
        is_port = isinstance(port, OutputPort)
        stalls = is_port and port.probe is not None and records_stalls(port.probe)
        if (
            is_port
            and port._retry_armed
            and port._single_tc
            and not stalls
            and port._q0
            and port._q0[0] is head
            and not pool.can_fit(head.vc, head.size)
        ):
            return
        report(
            self.name,
            entity,
            f"gated waiter {getattr(port, 'name', port)!r} is not an armed "
            f"single-class port blocked on this head without a "
            f"stall-recording probe",
            {
                "armed": getattr(port, "_retry_armed", None),
                "single_tc": getattr(port, "_single_tc", None),
                "records_stalls": stalls,
                "is_queue_head": bool(getattr(port, "_q0", None))
                and port._q0[0] is head,
                "head_size": head.size,
                "head_vc": head.vc,
                "shared_avail": pool.shared_avail,
                "reserve_avail": list(pool.reserve_avail),
            },
        )


class OccupancyChecker(InvariantChecker):
    """Port backlog vs. queue contents.

    ``backlog`` counts queued plus in-service bytes; the queues are the
    ground truth for the queued part.  An idle port's backlog must equal
    its queued bytes exactly; a busy port's may exceed them by the one
    packet on the wire, never fall short; and neither is ever negative.
    """

    name = "occupancy"

    def sweep(self, fabric, report: Callable) -> None:
        for where, port in _all_ports(fabric):
            queued = 0.0
            npkts = 0
            for q in port.queues:
                for pkt in q:
                    queued += pkt.size
                    npkts += 1
            entity = f"{where} port {port.name or port.kind}"
            snap = {
                "backlog": port.backlog,
                "queued_bytes": queued,
                "queued_pkts": npkts,
                "busy": port.busy,
            }
            if port.backlog < -_EPS:
                report(self.name, entity, "negative backlog", snap)
            elif queued > port.backlog + _EPS:
                report(
                    self.name,
                    entity,
                    "queued bytes exceed the backlog that accounts for them",
                    snap,
                )
            elif not port.busy and abs(port.backlog - queued) > _EPS:
                report(
                    self.name,
                    entity,
                    "idle port's backlog disagrees with its queue contents",
                    snap,
                )

    def wire_tx(self, port, pkt) -> None:
        if port.backlog < -_EPS:
            self.auditor.report(
                self.name,
                f"port {port.name or port.kind}",
                f"backlog went negative after sending pkt {pkt.pid}",
                {"backlog": port.backlog, "pkt_size": pkt.size},
            )


class PacketConservationChecker(InvariantChecker):
    """Injected == delivered + dropped (+ in flight), fabric-wide.

    Mid-run the totals must satisfy ``delivered + dropped <= injected``
    and every counter must be monotone between sweeps; once the event
    queue has drained the balance must close exactly — the
    generalization of the faults-layer conservation check to every
    audited run.
    """

    name = "packet-conservation"

    def __init__(self):
        self._last: Optional[tuple] = None

    def _totals(self, fabric) -> tuple:
        return (
            fabric.packets_injected(),
            fabric.packets_delivered(),
            fabric.packets_dropped(),
        )

    def sweep(self, fabric, report: Callable) -> None:
        inj, dlv, drp = self._totals(fabric)
        snap = {"injected": inj, "delivered": dlv, "dropped": drp}
        if dlv + drp > inj:
            report(
                self.name,
                "fabric",
                f"accounted for {dlv + drp} packets but only {inj} were "
                f"ever injected",
                snap,
            )
        if self._last is not None:
            for name, prev, cur in zip(
                ("injected", "delivered", "dropped"), self._last, (inj, dlv, drp)
            ):
                if cur < prev:
                    report(
                        self.name,
                        "fabric",
                        f"monotonic counter '{name}' went backwards "
                        f"({prev} -> {cur})",
                        snap,
                    )
        self._last = (inj, dlv, drp)

    def final(self, fabric, report: Callable) -> None:
        self.sweep(fabric, report)
        if fabric.sim.live_queue_length > 0:
            return  # stopped mid-run (until=): packets legitimately in flight
        inj, dlv, drp = self._totals(fabric)
        if inj != dlv + drp:
            report(
                self.name,
                "fabric",
                f"drained run does not balance: injected {inj} != "
                f"delivered {dlv} + dropped {drp}",
                {"injected": inj, "delivered": dlv, "dropped": drp},
            )


class TimestampChecker(InvariantChecker):
    """Per-entity timestamps never run backwards.

    Hook-driven: each NIC's injection and delivery streams must carry
    non-decreasing timestamps, a packet is never delivered before it was
    injected, and no message is injected before it was submitted.  The
    sweep additionally pins the global clock itself as monotone across
    sweeps (a corrupted ``sim.now`` would skew every measurement in the
    paper's figures).
    """

    name = "timestamps"

    def __init__(self):
        self._last_inject: Dict[int, float] = {}
        self._last_deliver: Dict[int, float] = {}
        self._last_sweep: Optional[float] = None

    def injected(self, nic, pkt, state) -> None:
        now = nic.sim.now
        entity = f"nic {nic.node}"
        last = self._last_inject.get(nic.node)
        if last is not None and now < last - _EPS:
            self.auditor.report(
                self.name,
                entity,
                f"injection timestamp ran backwards ({last} -> {now})",
                {"last_inject_ns": last, "now_ns": now, "pkt": pkt.pid},
            )
        self._last_inject[nic.node] = now
        msg = pkt.message
        if msg is not None and msg.submit_time is not None:
            if now < msg.submit_time - _EPS:
                self.auditor.report(
                    self.name,
                    entity,
                    f"packet injected at {now} before its message was "
                    f"submitted at {msg.submit_time}",
                    {"submit_ns": msg.submit_time, "now_ns": now, "pkt": pkt.pid},
                )

    def delivered(self, nic, pkt, msg) -> None:
        now = nic.sim.now
        entity = f"nic {nic.node}"
        last = self._last_deliver.get(nic.node)
        if last is not None and now < last - _EPS:
            self.auditor.report(
                self.name,
                entity,
                f"delivery timestamp ran backwards ({last} -> {now})",
                {"last_deliver_ns": last, "now_ns": now, "pkt": pkt.pid},
            )
        self._last_deliver[nic.node] = now
        if pkt.inject_time is not None and now < pkt.inject_time - _EPS:
            self.auditor.report(
                self.name,
                entity,
                f"packet delivered at {now} before its injection at "
                f"{pkt.inject_time}",
                {"inject_ns": pkt.inject_time, "now_ns": now, "pkt": pkt.pid},
            )

    def sweep(self, fabric, report: Callable) -> None:
        now = fabric.sim.now
        if self._last_sweep is not None and now < self._last_sweep - _EPS:
            report(
                self.name,
                "simulator",
                f"global clock ran backwards ({self._last_sweep} -> {now})",
                {"last_sweep_ns": self._last_sweep, "now_ns": now},
            )
        self._last_sweep = now


def reachable_switches(fabric, start: int) -> set:
    """Switch ids reachable from *start* over live inter-switch wires:
    a BFS over the fabric's link directory, reading the same ``up`` flags
    the router's live tables filter on."""
    adj: dict = {}
    for ref in fabric.links.values():
        if ref.kind == "host" or not ref.up:
            continue
        for port in ref.ports:
            adj.setdefault(port.owner.id, []).append(port.rx.id)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for t in adj.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


class RoutingHealthChecker(InvariantChecker):
    """Live routing tables vs. the ports' ``up`` flags, and reachability.

    The ports' ``up`` flags are the one record of link health; the only
    cache of it is the adaptive router's per-switch live tables, rebuilt
    whenever the topology's ``health_epoch`` moves.  This checker asserts
    that while those tables are current, every port they name is up (a
    fault-control primitive that forgot its epoch bump would leave a dead
    port routable); that the flags obey the liveness rule, under which a
    link is up exactly when its own failure is over and every switch it
    touches is up (so overlapping link and switch faults neither revive
    a link early nor leave one down); and that every endpoint with a
    live host link can still reach every other over live wires, i.e.
    the paper's "keeps serving traffic at reduced capacity" promise is
    structurally possible.
    """

    name = "routing-health"

    def sweep(self, fabric, report: Callable) -> None:
        topo = fabric.topology
        if getattr(fabric.router, "_epoch", None) == topo.health_epoch:
            for sw in fabric.switches:
                tables = [ent[0] for ent in sw.rt_global.values()]
                tables.extend(sw.rt_detour.values())
                dead = sorted({p.name for ports in tables for p in ports if not p.up})
                if dead:
                    report(
                        self.name,
                        f"switch {sw.id}",
                        "current routing table names dead ports",
                        {"epoch": topo.health_epoch, "dead_ports": dead},
                    )
        # The liveness rule: a link is up exactly when its own failure is
        # over and every switch it touches is up.
        for key, ref in fabric.links.items():
            switches_up = tuple(fabric.switches[s].up for s in ref.switches)
            live = not ref.failed and all(switches_up)
            ports_up = tuple(p.up for p in ref.ports)
            if any(up != live for up in ports_up):
                report(
                    self.name,
                    f"link {key}",
                    f"link should be {'up' if live else 'down'} by the "
                    f"liveness rule",
                    {
                        "failed": ref.failed,
                        "switches_up": switches_up,
                        "ports_up": ports_up,
                    },
                )
        # Reachability: all endpoints with live host links must sit in one
        # live component (degraded service, not partition).
        live_switches = sorted(
            {
                topo.node_switch(key[1])
                for key, ref in fabric.links.items()
                if ref.kind == "host"
                and ref.up
                and fabric.switches[topo.node_switch(key[1])].up
            }
        )
        if len(live_switches) > 1:
            reachable = reachable_switches(fabric, live_switches[0])
            unreachable = [s for s in live_switches if s not in reachable]
            if unreachable:
                report(
                    self.name,
                    "fabric",
                    f"link failures partition the fabric: switches "
                    f"{unreachable} unreachable from switch "
                    f"{live_switches[0]}",
                    {
                        "links_down": fabric.links_down(),
                        "unreachable": unreachable,
                    },
                )


def default_checkers() -> List[InvariantChecker]:
    """One instance of every standard checker (fresh state each call)."""
    return [
        CreditConservationChecker(),
        OccupancyChecker(),
        PacketConservationChecker(),
        TimestampChecker(),
        RoutingHealthChecker(),
    ]


class InvariantAuditor(Probe):
    """Attach point of the invariant-auditing subsystem.

    Registers itself as ``fabric.auditor``, attaches its checkers as the
    probe of every NIC and output port and itself as the fault
    injector's, and arms a periodic sweep (a :class:`PeriodicTick`, so
    an audited run still drains); :meth:`detach` undoes all of it.
    Violations are recorded on :attr:`violations` and, with
    ``raise_on_violation`` (the default), raised immediately so the
    offending event is at the top of the traceback.

    >>> from repro.systems import malbec_mini
    >>> fabric = malbec_mini().build()
    >>> auditor = fabric.attach_auditor()
    >>> _ = fabric.send(0, 1, 4096)
    >>> fabric.sim.run()
    >>> auditor.assert_clean()
    """

    def __init__(
        self,
        fabric,
        checkers: Optional[List[InvariantChecker]] = None,
        sweep_interval_ns: float = DEFAULT_SWEEP_INTERVAL_NS,
        raise_on_violation: bool = True,
        auto_start: bool = True,
    ):
        if fabric.auditor is not None:
            raise RuntimeError("fabric already has an InvariantAuditor attached")
        self.fabric = fabric
        self.sim = fabric.sim
        self.raise_on_violation = raise_on_violation
        self.checkers = list(checkers) if checkers is not None else default_checkers()
        self.violations: List[InvariantViolation] = []
        self.sweeps = 0
        self._tick = PeriodicTick(self.sim, sweep_interval_ns, self.sweep)
        self._finalized = False
        for c in self.checkers:
            c.attach(self)
        fabric.auditor = self
        checkers = ProbeFanout(tuple(self.checkers))
        self._handle = fabric.attach_probe(
            lambda c: checkers if isinstance(c, (NIC, OutputPort))
            else self if c is fabric.fault_injector
            else None
        )
        if auto_start:
            self.start()

    # -- control --------------------------------------------------------------

    def start(self) -> "InvariantAuditor":
        """Arm the periodic sweep (idempotent)."""
        self._tick.start()
        return self

    def detach(self) -> None:
        """Cancel the sweep and remove every probe (idempotent)."""
        self._tick.stop()
        self._handle.detach()
        if self.fabric.auditor is self:
            self.fabric.auditor = None

    # -- reporting ------------------------------------------------------------

    def report(
        self,
        invariant: str,
        entity: str,
        detail: str,
        snapshot: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record (and by default raise) one violation."""
        v = InvariantViolation(invariant, entity, self.sim.now, detail, snapshot)
        self.violations.append(v)
        if self.raise_on_violation:
            raise v

    # -- checking -------------------------------------------------------------

    def sweep(self) -> None:
        """Run every checker's sweep pass once, right now."""
        self.sweeps += 1
        for c in self.checkers:
            c.sweep(self.fabric, self.report)

    def final_check(self) -> List[InvariantViolation]:
        """Run every checker's end-of-run pass; returns all violations."""
        self._finalized = True
        for c in self.checkers:
            c.final(self.fabric, self.report)
        return self.violations

    def assert_clean(self) -> None:
        """Finalize (once) and raise the first violation, if any."""
        if not self._finalized:
            # final_check raises on the first violation when
            # raise_on_violation is set; otherwise inspect the list.
            self.final_check()
        if self.violations:
            raise self.violations[0]

    def fault(self, injector, ev) -> None:
        """Right after the fault injector mutates the fabric: sweep
        immediately so a fault that breaks an invariant is pinned to its
        own tick, not the next periodic sweep."""
        self.sweep()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"InvariantAuditor({len(self.checkers)} checkers, "
            f"{self.sweeps} sweeps, {len(self.violations)} violations)"
        )
