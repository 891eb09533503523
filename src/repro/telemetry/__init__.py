"""Unified fabric telemetry: counters, packet spans, trace exporters.

The observability layer for the whole simulator (and the shape a
production serving stack needs): a hierarchical metric registry
(:class:`Counter` / :class:`Gauge` / :class:`Histogram`), sampled
per-packet lifecycle spans (:class:`SpanRecorder`), and exporters to
JSONL, CSV and the Chrome trace-event format.  Time series of the
registry come from one sampler, :class:`repro.observe.TimeSeriesEngine`.

Typical use::

    from repro.observe import TimeSeriesEngine
    from repro.systems import malbec_mini
    from repro.telemetry import FabricTelemetry

    fabric = malbec_mini().build()
    telem = FabricTelemetry(fabric, sample_rate=0.1)
    engine = TimeSeriesEngine(fabric.sim, telem.registry, window_ns=10_000,
                              samples_per_window=1, max_windows=None).start()
    ... run traffic ...
    engine.stop()
    telem.export("out/", windows=engine)   # out/trace.json loads in Perfetto

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
    write_jsonl,
)
from .instrument import FabricTelemetry, FaultTelemetry
from .registry import Counter, Gauge, Histogram, TelemetryRegistry
from .spans import SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetryRegistry",
    "SpanRecorder",
    "FabricTelemetry",
    "FaultTelemetry",
    "chrome_trace",
    "counters_to_csv",
    "spans_to_jsonl",
    "timeseries_to_csv",
    "write_jsonl",
]
