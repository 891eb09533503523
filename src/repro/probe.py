"""One observer slot per fabric component.

Every observable component of a built fabric — each NIC, OutputPort and
Switch, the router, the congestion-control strategy and the
FaultInjector — carries one ``probe`` attribute.  It is ``None`` while
nothing observes the component, so the disabled cost of a hook point is
one attribute check and an unobserved run is event-for-event identical
to the seed (``tests/test_event_order_identity.py``).  :class:`Probe`
names every hook point once, each taking the calling component first;
its methods do nothing, so a subscriber overrides only what it observes.

Subscribers — :class:`~repro.telemetry.FabricTelemetry` (and
:class:`~repro.observe.FabricObserver` through it) and
:class:`~repro.validate.InvariantAuditor` — attach through one call,
:meth:`Fabric.attach_probe(factory) <repro.network.fabric.Fabric.attach_probe>`:
the fabric walks its components once and installs ``factory(component)``
wherever that returns a probe (telemetry returns one object per port; a
fabric-wide subscriber passes ``lambda c: self``).  A fault injector
attached later is offered to every attached factory too.  Several
probes on one component are wrapped in a :class:`ProbeFanout` that calls
them in attach order; the returned :class:`ProbeHandle` removes exactly
its own probes and unwraps the fan-out, so subscribers detach in any
order.

Hot path: the port's send body reads ``probe`` into a local once per
packet, and the NIC's pump reads ``probe`` into a local.  A port blocked
on credit tests ``probe is None`` once per arming: a credit release may
skip a single-class port it cannot unblock (a *gated* wait, see
:mod:`repro.network.buffers`) unless the port's probe
:func:`records_stalls`, because such a probe is the only thing that can
tell a skipped wakeup from a wasted one.
A probe may keep any packet it is handed: packets die by reference
count, so no later message reuses one.  End-to-end reliability
(``NIC.retrans``) is a protocol layer that changes delivery, not an
observer, so it keeps its own slot.
"""

from __future__ import annotations

__all__ = ["Probe", "ProbeFanout", "ProbeHandle", "records_stalls"]


class Probe:
    """No-op observer; subclasses override the hook points they need."""

    __slots__ = ()

    # NIC
    def injected(self, nic, pkt, state) -> None:
        """A packet left host memory (first send or retransmission)."""

    def delivered(self, nic, pkt, msg) -> None:
        """A packet reached its destination (*msg* None for a duplicate)."""

    def acked(self, nic, pkt, state) -> None:
        """The end-to-end ack for *pkt* reached its source."""

    # OutputPort (and Switch, for ``dropped``)
    def enqueued(self, port, pkt) -> None:
        """*pkt* joined the port's egress queue."""

    def arbitrated(self, port, pkt) -> None:
        """*pkt* won arbitration and starts serializing."""

    def marked(self, port, pkt) -> None:
        """*pkt* picked up an endpoint-congestion mark."""

    def wire_tx(self, port, pkt) -> None:
        """*pkt* finished serializing onto the wire."""

    def dropped(self, component, pkt) -> None:
        """A failed port, a dead switch or a missing route lost *pkt*."""

    def stall_begin(self, port) -> None:
        """The port has traffic but no downstream credits."""

    def stall_end(self, port) -> None:
        """The port's credit stall ended."""

    # Switch, router, CC strategy, fault injector
    def switch_rx(self, sw, pkt) -> None:
        """*pkt* arrived at a live switch's input stage."""

    def routed(self, router, sw, pkt, port, nonminimal, intermediate_group) -> None:
        """The router picked *port* at *sw* for *pkt*."""

    def window_update(self, cc, before, after) -> None:
        """A congestion-control update moved a window."""

    def fault(self, injector, ev) -> None:
        """The fault injector just applied *ev*."""


#: every hook point, in declaration order
HOOKS = tuple(name for name in vars(Probe) if not name.startswith("_"))


def _noop(*args) -> None:
    pass


def _bind(probes: tuple, name: str):
    """One callable running hook *name* of the probes that override it."""
    base = getattr(Probe, name)
    calls = [getattr(p, name) for p in probes]
    calls = [c for c in calls if c is not _noop and getattr(c, "__func__", None) is not base]
    if len(calls) < 2:
        return calls[0] if calls else _noop

    def hook(*args) -> None:
        for call in calls:
            call(*args)

    return hook


def records_stalls(probe) -> bool:
    """Whether *probe* (one probe or a fan-out) overrides ``stall_begin``
    or ``stall_end``.

    A wasted credit wakeup ends a port's stall and starts it again at
    the same instant; only a probe with one of these hooks sees that.
    """
    return (
        _bind((probe,), "stall_begin") is not _noop
        or _bind((probe,), "stall_end") is not _noop
    )


class ProbeFanout(Probe):
    """Several probes on one component, called in order.

    Each hook is bound once, at construction, to the members that
    override it, so a hook no member observes costs one no-op call.
    A subscriber may install its own fan-out (the auditor groups its
    checkers this way); the handle treats it as one opaque probe.
    """

    __slots__ = ("probes",) + HOOKS

    def __init__(self, probes: tuple):
        self.probes = probes
        for name in HOOKS:
            setattr(self, name, _bind(probes, name))


class _Merged(ProbeFanout):
    """Several subscribers' probes on one component (handle-owned)."""

    __slots__ = ()


class ProbeHandle:
    """The probes one :meth:`Fabric.attach_probe` call installed."""

    def __init__(self, fabric, factory):
        self.fabric = fabric
        self.factory = factory
        #: (component, probe) pairs this handle installed
        self.installed: list = []
        for component in fabric.probe_points():
            self.offer(component)
        fabric.probe_handles.append(self)

    def offer(self, component) -> None:
        """Install ``factory(component)`` unless it is None."""
        probe = self.factory(component)
        if probe is not None:
            _fill(component, _members(component.probe) + (probe,))
            self.installed.append((component, probe))

    def detach(self) -> None:
        """Remove exactly this handle's probes (idempotent)."""
        for component, probe in self.installed:
            rest = list(_members(component.probe))
            rest.remove(probe)
            _fill(component, tuple(rest))
        self.installed = []
        if self in self.fabric.probe_handles:
            self.fabric.probe_handles.remove(self)


def _members(slot) -> tuple:
    """The subscribers' probes in one component's slot, in attach order."""
    return () if slot is None else slot.probes if type(slot) is _Merged else (slot,)


def _fill(component, probes: tuple) -> None:
    """Set the slot: None, the lone probe, or a fan-out over several."""
    component.probe = _Merged(probes) if len(probes) > 1 else probes[0] if probes else None
