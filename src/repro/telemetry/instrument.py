"""Attach telemetry to a built fabric.

:class:`FabricTelemetry` is the one entry point: construct it over a
:class:`~repro.network.fabric.Fabric` and every layer — NICs, switch
ports (VOQs), the adaptive router, the congestion-control strategy, and
the simulator itself — starts reporting into one registry and one span
stream under stable hierarchical names::

    sim.queue_depth                      nic.0.tx_bytes
    switch.3.pkts_forwarded              nic.0.cc_queued_bytes
    switch.3.port.L3->4.voq_depth        router.decisions
    switch.3.port.L3->4.tx_bytes         router.nonmin_decisions
    switch.3.port.H3->12.marks           cc.window_cuts
    fabric.pkt_latency_ns (histogram)    cc.window (histogram)

Design rules (the whole point of this module):

* **Disabled cost is one attribute check.**  Telemetry is a set of
  :class:`~repro.probe.Probe` subscribers installed through the
  fabric's one probe slot per component (see :mod:`repro.probe`).
  Nothing is scheduled, allocated, or hashed on the disabled path, so an
  un-instrumented run is event-for-event identical to a build that never
  imported this package.
* **Levels over events where possible.**  Quantities the components
  already track (``bytes_sent``, ``backlog``, ``marks_set`` …) are
  exposed as callable-backed gauges evaluated only when the registry is
  sampled — zero hot-path cost even when enabled.
* **No simulation randomness.**  Span sampling hashes the packet id;
  enabling tracing can never perturb routing or CC decisions.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..network.nic import NIC
from ..network.switch import OutputPort, Switch
from ..probe import Probe
from .exporters import (
    counters_to_csv,
    timeseries_to_csv,
    chrome_trace,
    spans_to_jsonl,
)
from .registry import TelemetryRegistry
from .spans import SpanRecorder

__all__ = ["FabricTelemetry", "PortTelemetry", "SwitchTelemetry",
           "NicTelemetry", "RouterTelemetry", "CcTelemetry",
           "FaultTelemetry"]


class SwitchTelemetry(Probe):
    """Span hooks for the switches' input stages."""

    __slots__ = ("spans",)

    def __init__(self, parent: "FabricTelemetry"):
        self.spans = parent.spans

    def switch_rx(self, sw, pkt) -> None:
        if pkt.traced:
            self.spans.record(
                sw.sim.now, pkt.pid, "switch", "switch_rx",
                switch=sw.id, group=sw.group, hops=pkt.hops, vc=pkt.vc,
            )

    def dropped(self, sw, pkt) -> None:
        if pkt.traced:
            self.spans.record(
                sw.sim.now, pkt.pid, "fault", "pkt_dropped",
                switch=sw.id, up=sw.up, hops=pkt.hops,
            )


class PortTelemetry(Probe):
    """Span hooks for one output port (switch VOQ or NIC injection).

    Also tracks credit-stall time: the cumulative sim-time this port
    spent with queued traffic it could not move because the downstream
    buffer was out of space.  The switch signals stall boundaries from
    its retry timer (:meth:`stall_begin` / :meth:`stall_end`); the
    totals land in the registry as ``<base>.credit_stall_ns`` and
    ``<base>.credit_stalls`` so the windowed time-series engine
    (:mod:`repro.observe`) can difference them per window.
    """

    __slots__ = ("spans", "port_name", "layer",
                 "stall_ns", "stalls", "_stall_t0")

    def __init__(self, parent: "FabricTelemetry", port, base: str):
        self.spans = parent.spans
        self.port_name = port.name or port.kind
        # the NIC's injection port is NIC-layer; everything else is a
        # switch VOQ
        self.layer = "nic" if port.kind == "inject" else "switch"
        self.stall_ns = parent.registry.counter(f"{base}.credit_stall_ns")
        self.stalls = parent.registry.counter(f"{base}.credit_stalls")
        self._stall_t0: Optional[float] = None

    def stall_begin(self, port) -> None:
        # Re-arming an already-armed retry just moves the deadline; the
        # stall started at the *first* arm, so keep the original t0.
        if self._stall_t0 is None:
            self._stall_t0 = port.sim.now

    def stall_end(self, port) -> None:
        if self._stall_t0 is not None:
            self.stall_ns.inc(port.sim.now - self._stall_t0)
            self.stalls.inc()
            self._stall_t0 = None

    def enqueued(self, port, pkt) -> None:
        if pkt.traced:
            self.spans.record(
                port.sim.now, pkt.pid, self.layer, "voq_enqueue",
                port=self.port_name, tc=pkt.tc, vc=pkt.vc,
                voq_bytes=port.backlog,
            )

    def arbitrated(self, port, pkt) -> None:
        if pkt.traced:
            self.spans.record(
                port.sim.now, pkt.pid, self.layer, "arbitrated",
                port=self.port_name, tc=pkt.tc, voq_bytes=port.backlog,
            )

    def marked(self, port, pkt) -> None:
        if pkt.traced:
            self.spans.record(
                port.sim.now, pkt.pid, self.layer, "ecn_marked",
                port=self.port_name, voq_bytes=port.backlog,
            )

    def wire_tx(self, port, pkt) -> None:
        if pkt.traced:
            self.spans.record(
                port.sim.now, pkt.pid, self.layer, "wire_tx",
                port=self.port_name, bytes=pkt.size,
            )

    def dropped(self, port, pkt) -> None:
        if pkt.traced:
            self.spans.record(
                port.sim.now, pkt.pid, "fault", "pkt_dropped",
                port=self.port_name, tc=pkt.tc, hops=pkt.hops,
            )


class NicTelemetry(Probe):
    """Span + histogram hooks for the NICs (injection and delivery)."""

    __slots__ = ("spans", "pkt_latency", "msg_latency")

    def __init__(self, parent: "FabricTelemetry"):
        self.spans = parent.spans
        self.pkt_latency = parent.registry.histogram(
            "fabric.pkt_latency_ns", lo=10.0, hi=1e9, bins_per_decade=8
        )
        self.msg_latency = parent.registry.histogram(
            "fabric.msg_latency_ns", lo=10.0, hi=1e10, bins_per_decade=8
        )

    def injected(self, nic, pkt, state) -> None:
        pkt.traced = self.spans.sample(pkt.pid)
        if pkt.traced:
            # mid/seq identify the *logical* packet across retransmission
            # clones (which get fresh pids); attribution stitches retry
            # chains back together from them.
            self.spans.record(
                nic.sim.now, pkt.pid, "nic", "injected",
                src=pkt.src, dst=pkt.dst, bytes=pkt.size, tc=pkt.tc,
                window=state.window, in_flight=state.in_flight,
                mid=pkt.message.mid, seq=pkt.seq, attempt=pkt.attempt,
            )

    def delivered(self, nic, pkt, msg) -> None:
        now = nic.sim.now
        self.pkt_latency.observe(now - pkt.inject_time)
        if msg is not None and msg.complete_time == now and msg.complete:
            self.msg_latency.observe(now - msg.submit_time)
        if pkt.traced:
            self.spans.record(
                now, pkt.pid, "nic", "delivered",
                node=nic.node, hops=pkt.hops,
                latency_ns=now - pkt.inject_time,
                marked=pkt.marked,
            )

    def acked(self, nic, pkt, state) -> None:
        if pkt.traced:
            self.spans.record(
                nic.sim.now, pkt.pid, "cc", "cc_window",
                dst=pkt.dst, window=state.window,
                in_flight=state.in_flight, marked=pkt.marked,
            )


class RouterTelemetry(Probe):
    """Counters + spans for adaptive-routing decisions."""

    __slots__ = ("spans", "decisions", "nonmin", "valiant")

    def __init__(self, parent: "FabricTelemetry"):
        self.spans = parent.spans
        self.decisions = parent.registry.counter("router.decisions")
        self.nonmin = parent.registry.counter("router.nonmin_decisions")
        self.valiant = parent.registry.counter("router.valiant_misroutes")

    def routed(self, router, sw, pkt, port, nonminimal: bool,
               intermediate_group: Optional[int]) -> None:
        self.decisions.inc()
        if nonminimal:
            self.nonmin.inc()
        if intermediate_group is not None:
            self.valiant.inc()
        if pkt.traced:
            self.spans.record(
                sw.sim.now, pkt.pid, "routing", "routed",
                switch=sw.id, port=port.name or port.kind,
                nonmin=nonminimal,
                via_group=intermediate_group,
            )


class CcTelemetry(Probe):
    """Counters + window histogram for the congestion-control strategy."""

    __slots__ = ("acks", "cuts", "grows", "window_hist")

    def __init__(self, parent: "FabricTelemetry"):
        reg = parent.registry
        self.acks = reg.counter("cc.acks")
        self.cuts = reg.counter("cc.window_cuts")
        self.grows = reg.counter("cc.window_grows")
        self.window_hist = reg.histogram(
            "cc.window", lo=1.0 / 64.0, hi=1e3, bins_per_decade=8
        )

    def window_update(self, cc, before: float, after: float) -> None:
        self.acks.inc()
        if after < before:
            self.cuts.inc()
        elif after > before:
            self.grows.inc()
        self.window_hist.observe(after)


class FaultTelemetry(Probe):
    """Counters + spans for the fault-injection subsystem (repro.faults).

    Attached automatically to the fabric's
    :class:`~repro.faults.FaultInjector`, whether it was attached before
    or after the telemetry.  Fault events land in their own
    ``fault`` span layer (alongside per-packet ``pkt_dropped`` events),
    and the reliability counters are exposed as sample-time gauges.
    """

    __slots__ = ("spans", "events")

    def __init__(self, parent: "FabricTelemetry", injector):
        reg, fabric = parent.registry, parent.fabric
        self.spans = parent.spans
        self.events = reg.counter("faults.events")
        reg.gauge("faults.links_down", fn=lambda f=fabric: len(f.links_down()))
        reg.gauge("faults.pkts_dropped", fn=fabric.packets_dropped)
        reg.gauge("faults.retransmits", fn=injector.retransmits)
        reg.gauge("faults.dup_pkts", fn=injector.dup_pkts)
        reg.gauge("faults.giveups", fn=injector.giveups)
        reg.gauge("faults.outstanding", fn=injector.outstanding)

    def fault(self, injector, ev) -> None:
        self.events.inc()
        self.spans.record(
            injector.sim.now, 0, "fault", ev.action,
            target=list(ev.target) if isinstance(ev.target, tuple) else ev.target,
            value=ev.value, links_down=len(injector.fabric.links_down()),
        )


class FabricTelemetry:
    """Unified telemetry over one fabric.

    >>> fabric = malbec_mini().build()                      # doctest: +SKIP
    >>> telem = FabricTelemetry(fabric, sample_rate=0.1)    # doctest: +SKIP
    >>> fabric.sim.run()                                    # doctest: +SKIP
    >>> telem.export("trace_out/")                          # doctest: +SKIP

    For a time series of the registry, run a
    :class:`repro.observe.TimeSeriesEngine` over :attr:`registry` and
    pass it to :meth:`export` (``repro trace`` does).
    """

    def __init__(
        self,
        fabric,
        sample_rate: float = 1.0,
        seed: Optional[int] = None,
        max_span_events: int = 2_000_000,
    ):
        self.fabric = fabric
        self.registry = TelemetryRegistry()
        self.spans = SpanRecorder(
            sample_rate=sample_rate,
            seed=fabric.config.seed if seed is None else seed,
            max_events=max_span_events,
        )
        reg, sim = self.registry, fabric.sim
        reg.gauge("sim.queue_depth", fn=lambda: sim.queue_length)
        reg.gauge("sim.events_processed", fn=lambda: sim.events_processed)
        reg.gauge("sim.events_per_wall_s", fn=lambda: sim.events_per_wall_second)
        reg.gauge("fabric.messages_sent", fn=lambda: fabric.messages_sent)
        reg.gauge("fabric.messages_completed",
                  fn=lambda: fabric.messages_completed)
        # switches and NICs pass themselves to every hook, so one probe
        # serves them all; ports keep per-port stall state
        self._switch_probe = SwitchTelemetry(self)
        self._nic_probe = NicTelemetry(self)
        self._handle = fabric.attach_probe(self._probe_for)

    # -- wiring ----------------------------------------------------------------

    def _probe_for(self, c) -> Probe:
        """One probe per component, registering its gauges on the way."""
        fabric, reg = self.fabric, self.registry
        if isinstance(c, OutputPort):
            owner = c.owner
            label = (
                f"switch.{owner.id}" if isinstance(owner, Switch)
                else f"nic.{owner.node}"
            )
            base = f"{label}.port.{c.name or c.kind}"
            reg.gauge(f"{base}.voq_depth", fn=lambda p=c: p.backlog)
            reg.gauge(f"{base}.tx_bytes", fn=lambda p=c: p.bytes_sent)
            reg.gauge(f"{base}.credited_bytes", fn=lambda p=c: p.credited_bytes)
            reg.gauge(f"{base}.marks", fn=lambda p=c: p.marks_set)
            reg.gauge(f"{base}.drops", fn=lambda p=c: p.pkts_dropped)
            return PortTelemetry(self, c, base)
        if isinstance(c, Switch):
            base = f"switch.{c.id}"
            reg.gauge(f"{base}.pkts_forwarded", fn=lambda s=c: s.pkts_forwarded)
            reg.gauge(f"{base}.pkts_dropped", fn=lambda s=c: s.pkts_dropped)
            return self._switch_probe
        if isinstance(c, NIC):
            base = f"nic.{c.node}"
            reg.gauge(f"{base}.tx_bytes", fn=lambda n=c: n.bytes_injected)
            reg.gauge(f"{base}.rx_bytes", fn=lambda n=c: n.bytes_delivered)
            reg.gauge(f"{base}.tx_pkts", fn=lambda n=c: n.pkts_injected)
            reg.gauge(f"{base}.rx_pkts", fn=lambda n=c: n.pkts_delivered)
            reg.gauge(f"{base}.acks_marked", fn=lambda n=c: n.acks_marked)
            reg.gauge(f"{base}.cc_queued_bytes", fn=c.queued_bytes)
            reg.gauge(f"{base}.pending_pkts", fn=c.pending_packets)
            reg.gauge(f"{base}.blocked_pairs", fn=c.blocked_pairs)
            return self._nic_probe
        if c is fabric.router:
            reg.gauge("router.reroutes", fn=lambda: getattr(c, "reroutes", 0))
            reg.gauge("router.no_route", fn=lambda: getattr(c, "no_route", 0))
            return RouterTelemetry(self)
        if c is fabric.cc:
            return CcTelemetry(self)
        return FaultTelemetry(self, c)

    def detach(self) -> None:
        """Remove this telemetry's probes (other subscribers keep theirs)."""
        if self._handle is None:
            return
        self._handle.detach()
        self._handle = None

    def __enter__(self) -> "FabricTelemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- export ----------------------------------------------------------------

    def export(self, outdir: str, prefix: str = "trace", windows=None) -> dict:
        """Write all artifacts into *outdir*; returns {kind: path}.

        Artifacts: ``<prefix>.json`` (Chrome/Perfetto trace),
        ``<prefix>.jsonl`` (span event stream), ``<prefix>_counters.csv``
        (final values + histogram summaries) and, given a stopped
        :class:`repro.observe.TimeSeriesEngine` as *windows*,
        ``<prefix>_timeseries.csv``; its tracks are the Chrome trace's
        counter tracks too.
        """
        os.makedirs(outdir, exist_ok=True)
        paths = {}

        p = os.path.join(outdir, f"{prefix}.json")
        with open(p, "w") as fh:
            json.dump(chrome_trace(self.spans, windows), fh)
        paths["chrome_trace"] = p

        p = os.path.join(outdir, f"{prefix}.jsonl")
        with open(p, "w") as fh:
            fh.write(spans_to_jsonl(self.spans))
        paths["jsonl"] = p

        p = os.path.join(outdir, f"{prefix}_counters.csv")
        with open(p, "w") as fh:
            fh.write(counters_to_csv(self.registry))
        paths["counters_csv"] = p

        if windows is not None:
            p = os.path.join(outdir, f"{prefix}_timeseries.csv")
            with open(p, "w") as fh:
                fh.write(timeseries_to_csv(windows))
            paths["timeseries_csv"] = p
        return paths
