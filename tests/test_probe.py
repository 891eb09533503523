"""The one-probe-slot-per-component observer mechanism (repro.probe).

Several subscribers can share a fabric and leave it in any order: each
keeps recording until its own detach, and once the last one is gone the
fabric is indistinguishable from one that was never observed — no
probe left on any port, no extra events — and a probe on one component
holds the packets it was handed unchanged for as long as it keeps them.
Whether a probe records credit stalls decides how a blocked port waits
(:func:`~repro.probe.records_stalls`).
"""

import pytest

from repro.faults import FaultSchedule, link_fail, link_recover
from repro.network.nic import NIC
from repro.network.units import KiB
from repro.probe import HOOKS, Probe, ProbeFanout, records_stalls
from repro.systems import malbec_mini
from repro.telemetry import FabricTelemetry
from repro.validate import EventTrace, InvariantAuditor, bisection_scenario
from repro.validate.invariants import InvariantChecker, default_checkers


class Recorder(Probe):
    def __init__(self, name, log):
        self.name = name
        self.log = log

    def wire_tx(self, port, pkt):
        self.log.append(self.name)


class DeliveryCounter(Probe):
    """A fabric-wide subscriber: one probe object on every NIC, counting
    the packets they deliver."""

    def __init__(self, fabric):
        self.count = 0
        self._handle = fabric.attach_probe(
            lambda c: self if isinstance(c, NIC) else None
        )

    def detach(self):
        self._handle.detach()

    def delivered(self, nic, pkt, msg):
        self.count += 1


class InjectCounter(InvariantChecker):
    """Auditor checker that only counts the injections it is shown."""

    name = "inject-counter"

    def __init__(self):
        self.count = 0

    def injected(self, nic, pkt, state):
        self.count += 1

    def sweep(self, fabric, report):
        pass


def _traffic(fabric, nbytes=16 * KiB):
    n = fabric.topology.n_nodes
    for i in range(0, n, 8):
        fabric.send(i, (i + n // 2) % n, nbytes)
    fabric.sim.run()


def test_fanout_dispatches_in_attach_order_and_unwraps_on_detach():
    fabric = malbec_mini().build()
    port = fabric.nics[0].out_port
    log = []
    handles = [
        fabric.attach_probe(lambda c, k=k: Recorder(k, log) if c is port else None)
        for k in "abc"
    ]
    assert isinstance(port.probe, ProbeFanout) and not records_stalls(port.probe)
    port.probe.wire_tx(port, None)
    assert log == ["a", "b", "c"]
    handles[1].detach()
    assert [p.name for p in port.probe.probes] == ["a", "c"]
    handles[0].detach()
    assert port.probe.name == "c"  # a single probe is installed unwrapped
    handles[2].detach()
    handles[2].detach()  # idempotent
    assert port.probe is None
    assert fabric.probe_handles == []


def test_fanout_covers_every_hook_point():
    assert set(HOOKS) == {
        "injected", "delivered", "acked", "enqueued",
        "arbitrated", "marked", "wire_tx", "dropped", "stall_begin",
        "stall_end", "switch_rx", "routed", "window_update", "fault",
    }
    log = []
    fanout = ProbeFanout((Recorder("a", log), Probe(), Recorder("b", log)))
    fanout.wire_tx(None, None)
    assert log == ["a", "b"]
    # hooks no member overrides are bound to one shared no-op
    assert len({id(getattr(fanout, h)) for h in HOOKS if h != "wire_tx"}) == 1


class StallBegin(Probe):
    def stall_begin(self, port):
        pass


class StallEnd(Probe):
    def stall_end(self, port):
        pass


def test_records_stalls_sees_either_hook_through_fanouts():
    """A probe records stalls iff it, or a member of its fan-out,
    overrides ``stall_begin`` or ``stall_end``."""
    log = []
    assert not records_stalls(Probe())
    assert not records_stalls(Recorder("a", log))
    assert records_stalls(StallBegin())
    assert records_stalls(StallEnd())
    assert not records_stalls(ProbeFanout((Recorder("a", log), Probe())))
    assert records_stalls(ProbeFanout((Recorder("a", log), StallEnd())))
    assert records_stalls(ProbeFanout((StallBegin(), StallEnd())))
    # what the subscribers install on a port: telemetry records stalls,
    # the auditor's checkers do not, and the two together do
    fabric = malbec_mini().build()
    port = fabric.nics[0].out_port
    auditor = InvariantAuditor(fabric)
    assert not records_stalls(port.probe)
    telem = FabricTelemetry(fabric)
    assert isinstance(port.probe, ProbeFanout) and records_stalls(port.probe)
    auditor.detach()
    assert records_stalls(port.probe)
    telem.detach()
    assert port.probe is None


SUBSCRIBERS = ("tel_a", "nics_a", "auditor", "tel_b", "nics_b")


@pytest.mark.parametrize(
    "attach_order, detach_order",
    [
        (SUBSCRIBERS, SUBSCRIBERS),
        (SUBSCRIBERS, ("nics_b", "tel_b", "auditor", "nics_a", "tel_a")),
        (("auditor",) + SUBSCRIBERS[:2] + SUBSCRIBERS[3:], SUBSCRIBERS),
        (("auditor",) + SUBSCRIBERS[:2] + SUBSCRIBERS[3:],
         ("auditor", "tel_b", "nics_a", "tel_a", "nics_b")),
    ],
)
def test_subscribers_detach_in_any_order(attach_order, detach_order):
    """Two telemetries, two fabric-wide NIC subscribers and an auditor
    share one fabric; every subscriber still attached keeps recording
    after the others leave."""
    fabric = malbec_mini().build()
    counter = InjectCounter()
    make = {
        "tel_a": lambda: FabricTelemetry(fabric),
        "tel_b": lambda: FabricTelemetry(fabric),
        "nics_a": lambda: DeliveryCounter(fabric),
        "nics_b": lambda: DeliveryCounter(fabric),
        "auditor": lambda: InvariantAuditor(
            fabric, checkers=default_checkers() + [counter]
        ),
    }
    subs = {name: make[name]() for name in attach_order}
    auditor = subs["auditor"]
    live = {
        "tel_a": lambda: len(subs["tel_a"].spans),
        "tel_b": lambda: len(subs["tel_b"].spans),
        "nics_a": lambda: subs["nics_a"].count,
        "nics_b": lambda: subs["nics_b"].count,
        "auditor": lambda: counter.count,
    }
    for leaving in (None,) + detach_order:
        if leaving is not None:
            subs[leaving].detach()
            del live[leaving]
        before = {name: read() for name, read in live.items()}
        _traffic(fabric)
        for name, read in live.items():
            assert read() > before[name], f"{name} stopped after {leaving} left"
    assert all(c.probe is None for c in fabric.probe_points())
    assert fabric.auditor is None
    auditor.assert_clean()


@pytest.mark.parametrize("auditor_leaves_first", [True, False])
def test_auditor_with_one_checker_shares_ports(auditor_leaves_first):
    """The auditor's own checker fan-out stays intact beside telemetry."""
    fabric = malbec_mini().build()
    counter = InjectCounter()
    auditor = InvariantAuditor(fabric, checkers=[counter])
    telem = FabricTelemetry(fabric)
    first, second = (auditor, telem) if auditor_leaves_first else (telem, auditor)
    first.detach()
    before = counter.count
    _traffic(fabric)
    assert (counter.count > before) != auditor_leaves_first
    second.detach()
    assert all(c.probe is None for c in fabric.probe_points())


def test_detached_subscribers_leave_no_stale_state():
    """Attach and detach every subscriber before traffic: the bisection
    run is the never-observed run event for event."""
    scenario = bisection_scenario("malbec")

    def run(observe_then_detach):
        fabric = scenario()
        if observe_then_detach:
            subscribers = [
                FabricTelemetry(fabric),
                InvariantAuditor(fabric),
                DeliveryCounter(fabric),
            ]
            # telemetry's stall hooks would make every blocked port wait
            # ungated; after the detach no port has a probe at all
            assert all(records_stalls(port.probe) for _, port in fabric.all_ports())
            for sub in subscribers:
                sub.detach()
            assert all(c.probe is None for c in fabric.probe_points())
        trace = EventTrace()
        fabric.sim.event_hook = trace
        fabric.sim.run()
        return trace

    clean = run(False)
    detached = run(True)
    assert len(detached) == len(clean) == 70_600
    assert detached.events == clean.events


def test_a_probe_on_one_port_keeps_its_packets_unchanged():
    """A probe on one host port keeps every packet it arbitrates.  The
    NICs that ack those packets carry no probe, yet a second round of
    traffic must not hand any kept packet to another message."""
    fabric = malbec_mini().build()
    port = fabric.host_port(5)
    kept = []

    class Keeper(Probe):
        def arbitrated(self, port, pkt):
            kept.append((pkt, (pkt.pid, pkt.src, pkt.dst, pkt.seq)))

    fabric.attach_probe(lambda c: Keeper() if c is port else None)
    n = fabric.topology.n_nodes
    for _ in range(2):
        for i in range(n):
            fabric.send(i, (i + n // 2) % n, 16 * KiB)
        fabric.sim.run()
        fabric.assert_quiescent()
    assert len(kept) == 8
    assert [(p.pid, p.src, p.dst, p.seq) for p, _ in kept] == [
        ident for _, ident in kept
    ]


@pytest.mark.parametrize("first", ["observers", "faults"])
def test_probes_see_faults_whichever_is_attached_first(first):
    fabric = malbec_mini().build()
    key = next(iter(fabric.links))
    schedule = FaultSchedule([link_fail(5_000.0, key), link_recover(50_000.0, key)])

    def observers():
        # sweep period past the run: every sweep seen comes from a fault
        auditor = fabric.attach_auditor(sweep_interval_ns=1e9)
        return auditor, fabric.attach_telemetry()

    if first == "faults":
        fabric.attach_faults(schedule)
        auditor, telem = observers()
    else:
        auditor, telem = observers()
        fabric.attach_faults(schedule)
    swept = []
    auditor.sweep = lambda: swept.append(fabric.sim.now)
    _traffic(fabric)
    assert swept[:2] == [5_000.0, 50_000.0]
    assert telem.registry.get("faults.events").read() == 2
