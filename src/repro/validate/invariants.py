"""Runtime invariant auditor: cross-layer conservation checks.

The simulator's layers each maintain redundant views of the same
physical quantities — an :class:`~repro.network.buffers.VcBufferPool`
keeps an O(1) occupancy counter next to the per-slice free-byte
counters it summarizes, an output port's ``backlog`` shadows its queues, the
topology's link-health mask shadows the per-port ``up`` flags, and the
NIC counters together encode packet conservation.  Each redundancy is a
performance or layering win, and each is a place where a bug can let
the views drift apart silently.  The auditor re-derives every one of
those quantities the slow way, on a periodic sweep and at targeted
event hooks, and reports any disagreement as a structured
:class:`InvariantViolation`.

Checkers are :class:`~repro.probe.Probe` subscribers on the fabric's
one probe slot per component (see :mod:`repro.probe`), so an unaudited
fabric is bit-identical to one built before this module existed
(enforced by ``tests/test_event_order_identity.py``).  Sweeps are
ordinary simulator events that re-arm only while real events remain,
mirroring
:class:`repro.telemetry.CounterScraper`, and never mutate state — an
audited run delivers the same packets at the same times as an unaudited
one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.adaptive_routing import reachable_switches
from ..network.nic import NIC
from ..network.switch import OutputPort
from ..probe import Probe, ProbeFanout

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
    """Per-pool credit conservation and occupancy bounds.

    The maintained ``_in_use`` counter must equal the bytes held in the
    shared slice plus every per-VC reserve slice, re-derived from the
    slices' free-byte counters, and must stay inside
    ``[0, total]``.  Any drift means bytes were acquired or released
    without the mirror update — exactly the corruption that would skew
    every adaptive-routing decision reading ``congestion_score``.
    """

    name = "credit-conservation"

    def sweep(self, fabric, report: Callable) -> None:
        seen = set()
        for where, port in _all_ports(fabric):
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


class RoutingHealthChecker(InvariantChecker):
    """Routing health mask vs. data-plane ``up`` flags vs. reachability.

    The adaptive router consults the topology's link-health mask; the
    data plane consults per-port ``up`` flags; fault injection mutates
    both through the fabric's fault-control primitives.  This checker
    asserts the three layers agree — every link's mask entry matches its
    ports, the ``degraded`` fast-path flag matches the mask, a dead
    switch has no live links — and that every endpoint with a live host
    link can still reach every other over live wires, i.e. the paper's
    "keeps serving traffic at reduced capacity" promise is structurally
    possible under the current mask.
    """

    name = "routing-health"

    def _mask_up(self, topo, ref) -> bool:
        key = ref.key
        if ref.kind == "local":
            return topo.local_link_up(key[1], key[2])
        if ref.kind == "global":
            return topo.global_link_up(key[1], key[2], key[3])
        return topo.host_link_up(key[1])

    def sweep(self, fabric, report: Callable) -> None:
        topo = fabric.topology
        any_down = False
        for key, ref in sorted(fabric.links.items(), key=lambda kv: repr(kv[0])):
            mask_up = self._mask_up(topo, ref)
            port_up = ref.up
            if not port_up:
                any_down = True
            if mask_up != port_up:
                report(
                    self.name,
                    f"link {key}",
                    f"health mask says up={mask_up} but the data-plane "
                    f"ports say up={port_up}",
                    {
                        "mask_up": mask_up,
                        "ports_up": tuple(p.up for p in ref.ports),
                    },
                )
        if topo.degraded != any_down:
            report(
                self.name,
                "topology",
                f"degraded flag is {topo.degraded} but "
                f"{'some' if any_down else 'no'} links are down",
                {"degraded": topo.degraded, "links_down": fabric.links_down()},
            )
        for sw in fabric.switches:
            if sw.up:
                continue
            live = [
                key
                for key in fabric._switch_links.get(sw.id, ())
                if fabric.links[key].up
            ]
            if live:
                report(
                    self.name,
                    f"switch {sw.id}",
                    "dead switch still has live links",
                    {"live_links": live},
                )
        # Reachability under the mask: all endpoints with live host links
        # must sit in one live component (degraded service, not partition).
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
                    f"health mask partitions the fabric: switches "
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
    injector's, and arms a periodic sweep (an ordinary simulator event
    that re-arms only while real events remain, so an audited run still
    drains); :meth:`detach` undoes all of it.  Violations are
    recorded on :attr:`violations` and, with ``raise_on_violation``
    (the default), raised immediately so the offending event is at the
    top of the traceback.

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
        if sweep_interval_ns <= 0:
            raise ValueError("sweep interval must be positive")
        self.fabric = fabric
        self.sim = fabric.sim
        self.sweep_interval_ns = sweep_interval_ns
        self.raise_on_violation = raise_on_violation
        self.checkers = list(checkers) if checkers is not None else default_checkers()
        self.violations: List[InvariantViolation] = []
        self.sweeps = 0
        self._timer = None  # the pending sweep (None = not armed)
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
        if self._timer is None:
            self._timer = self.sim.schedule_cancellable(
                self.sweep_interval_ns, self._sweep_tick
            )
        return self

    def _sweep_tick(self) -> None:
        self._timer = None
        self.sweep()
        # Re-arm only while real events remain, so an audited run drains.
        if self.sim.queue_length > 0:
            self.start()

    def detach(self) -> None:
        """Cancel the sweep and remove every probe (idempotent)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
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
        immediately so a mask/data-plane desync is pinned to the fault's
        own tick, not the next periodic sweep."""
        self.sweep()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"InvariantAuditor({len(self.checkers)} checkers, "
            f"{self.sweeps} sweeps, {len(self.violations)} violations)"
        )
