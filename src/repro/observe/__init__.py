"""Second-generation observability: windows, attribution, forensics.

PR 1's :mod:`repro.telemetry` records *what happened* — counters,
gauges, packet spans.  This package answers *why the run was slow*:

* :mod:`repro.observe.timeseries` — sim-time window ring over every
  registry metric, with per-window rates and level sketches (the one
  sampler ``repro trace`` also runs);
* :mod:`repro.observe.attribution` — delivered-packet latency
  decomposed into named stage budgets (host-inject wait, VOQ wait,
  arbitration, wire, switch, retry) plus the victim-vs-aggressor port
  report;
* :mod:`repro.observe.forensics` — hotspot detection (sustained vs
  transient), ECN heatmaps, ASCII summaries;
* :mod:`repro.observe.weathermap` — the whole dragonfly as a
  self-contained HTML/SVG page with a window slider.

:class:`FabricObserver` is the one-call entry point wiring all of it to
a built fabric (``fabric.attach_observer()``).  Everything rides on the
telemetry probes (:mod:`repro.probe`), so a fabric without an observer
stays on the zero-overhead path, bit-identical to the seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .attribution import (
    AttributionReport,
    PacketBudget,
    STAGES,
    VictimReport,
    attribute_packets,
    attribution_report,
    victim_aggressor_report,
)
from .forensics import ForensicsReport, HotPort, congestion_report
from .timeseries import CUMULATIVE_SUFFIXES, LevelAgg, TimeSeriesEngine, TimeWindow
from .weathermap import weathermap_data, weathermap_html, write_weathermap

__all__ = [
    "FabricObserver",
    "TimeSeriesEngine",
    "TimeWindow",
    "LevelAgg",
    "CUMULATIVE_SUFFIXES",
    "STAGES",
    "PacketBudget",
    "AttributionReport",
    "VictimReport",
    "attribute_packets",
    "attribution_report",
    "victim_aggressor_report",
    "ForensicsReport",
    "HotPort",
    "congestion_report",
    "weathermap_data",
    "weathermap_html",
    "write_weathermap",
]


class FabricObserver:
    """Windowed observability over one fabric.

    Builds (or adopts) a :class:`~repro.telemetry.FabricTelemetry`,
    derives per-port capacities and metric bases from the fabric wiring,
    and runs a :class:`TimeSeriesEngine` over the shared registry.

    >>> fabric = malbec_mini().build()              # doctest: +SKIP
    >>> obs = fabric.attach_observer(window_ns=10_000)  # doctest: +SKIP
    >>> fabric.sim.run(); obs.stop()                # doctest: +SKIP
    >>> print(obs.forensics().render())             # doctest: +SKIP
    """

    def __init__(
        self,
        fabric,
        telemetry=None,
        window_ns: float = 10_000.0,
        samples_per_window: int = 4,
        max_windows: int = 256,
        sample_rate: float = 1.0,
    ):
        if telemetry is None:
            from ..telemetry import FabricTelemetry

            telemetry = FabricTelemetry(fabric, sample_rate=sample_rate)
        self.fabric = fabric
        self.telemetry = telemetry
        #: ``"<base>.tx_bytes" -> bandwidth (B/ns)`` for every port
        self.capacities: Dict[str, float] = {}
        #: ``id(port) -> metric base`` (ports are unhashable by value)
        self._port_base: Dict[int, str] = {}
        for label, port in fabric.all_ports():
            base = f"{label}.port.{port.name or port.kind}"
            self._port_base[id(port)] = base
            self.capacities[f"{base}.tx_bytes"] = port.bandwidth
        #: per-switch voq_depth metric names (badge data)
        self._switch_depth_names: Dict[int, List[str]] = {
            sw.id: [
                f"switch.{sw.id}.port.{p.name or p.kind}.voq_depth"
                for p in sw.all_ports()
            ]
            for sw in fabric.switches
        }
        self.engine = TimeSeriesEngine(
            fabric.sim,
            telemetry.registry,
            window_ns=window_ns,
            samples_per_window=samples_per_window,
            max_windows=max_windows,
            capacities=self.capacities,
        ).start()

    # -- lifecycle -------------------------------------------------------------

    def stop(self) -> None:
        """Seal the open window (call after :meth:`Simulator.run`)."""
        self.engine.stop()

    @property
    def windows(self):
        return self.engine.windows

    @property
    def spans(self):
        return self.telemetry.spans

    @property
    def registry(self):
        return self.telemetry.registry

    def port_base(self, port) -> str:
        """The registry metric base of an :class:`OutputPort`."""
        return self._port_base[id(port)]

    # -- per-window fabric views ----------------------------------------------

    def link_utilization(self, window: TimeWindow) -> Dict[tuple, float]:
        """``{link_key: utilization}`` for one window — the max of the
        link's two directions (a wire is hot if either direction is)."""
        out = {}
        for key, ref in self.fabric.links.items():
            u = 0.0
            for port in ref.ports:
                name = f"{self._port_base[id(port)]}.tx_bytes"
                bw = self.capacities.get(name)
                if bw:
                    u = max(u, window.utilization(name, bw))
            out[key] = u
        return out

    def switch_depths(self, window: TimeWindow) -> Dict[int, float]:
        """``{switch_id: peak VOQ backlog bytes}`` for one window."""
        out = {}
        for sid, names in self._switch_depth_names.items():
            peak = 0.0
            for name in names:
                agg = window.levels.get(name)
                if agg is not None and agg.n and agg.vmax > peak:
                    peak = agg.vmax
            out[sid] = peak
        return out

    # -- reports ---------------------------------------------------------------

    def attribution(self) -> AttributionReport:
        """Stage-budget latency attribution over the sampled spans."""
        return attribution_report(self.spans)

    def victim_report(self, victims, aggressors=None, top_k: int = 5) -> VictimReport:
        """Victim-vs-aggressor port attribution (see
        :func:`repro.observe.attribution.victim_aggressor_report`)."""
        return victim_aggressor_report(
            self.spans, victims, aggressors=aggressors, top_k=top_k
        )

    def forensics(self, top_k: int = 5, hot_threshold: float = 0.7,
                  sustain_windows: int = 3) -> ForensicsReport:
        """Hotspot/ECN congestion forensics over the window ring."""
        return congestion_report(
            list(self.windows), self.capacities, top_k=top_k,
            hot_threshold=hot_threshold, sustain_windows=sustain_windows,
        )

    def weathermap(self, path: str, title: Optional[str] = None) -> str:
        """Write the HTML weather map; returns the path."""
        return write_weathermap(self, path, title=title)
