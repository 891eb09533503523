"""Unified fabric telemetry: counters, packet spans, trace exporters.

The observability layer for the whole simulator (and the shape a
production serving stack needs): a hierarchical metric registry
(:class:`Counter` / :class:`Gauge` / :class:`Histogram`), sampled
per-packet lifecycle spans (:class:`SpanRecorder`), a periodic
simulated-time scraper (:class:`CounterScraper`), and exporters to
JSONL, CSV and the Chrome trace-event format.

Typical use::

    from repro.systems import malbec_mini
    from repro.telemetry import FabricTelemetry

    fabric = malbec_mini().build()
    telem = FabricTelemetry(fabric, sample_rate=0.1, scrape_interval_ns=10_000)
    ... run traffic ...
    telem.export("out/")   # out/trace.json loads in Perfetto

Cost model: telemetry rides on the fabric's one probe slot per
component (see :mod:`repro.probe`); with no :class:`FabricTelemetry`
attached every hook is a single attribute check and the simulation is
event-for-event identical to one that never imported this package.
"""

from .exporters import (
    chrome_trace,
    counters_to_csv,
    spans_to_jsonl,
    timeseries_to_csv,
    write_chrome_trace,
    write_jsonl,
)
from .instrument import FabricTelemetry, FaultTelemetry
from .registry import Counter, Gauge, Histogram, TelemetryRegistry
from .scraper import CounterScraper
from .spans import SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetryRegistry",
    "SpanRecorder",
    "CounterScraper",
    "FabricTelemetry",
    "FaultTelemetry",
    "chrome_trace",
    "counters_to_csv",
    "spans_to_jsonl",
    "timeseries_to_csv",
    "write_chrome_trace",
    "write_jsonl",
]
