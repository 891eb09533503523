"""Exporters: JSONL event streams, CSV counter dumps, Chrome traces.

Three output shapes, all built from the same in-memory telemetry:

* **JSONL** — one span event per line, exactly as recorded.  The
  greppable/streamable form for ad-hoc analysis (``jq``, pandas).
* **CSV** — final counter/gauge values and histogram summaries
  (``counters_to_csv``), and the windowed time series in long format
  (``timeseries_to_csv``).
* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` or
  Perfetto.  Sampled packets become one timeline row each (their
  lifecycle phases as complete events, marks/routing decisions as
  instants) and every time-series track becomes a counter track, so a
  whole simulation reads as a visual timeline.

The time series comes from a :class:`repro.observe.TimeSeriesEngine`,
passed as *windows* and duck-typed on its ``counter_tracks()`` (this
module must not import the observe layer); the CSV and the Chrome
counter tracks render that one track list.

Chrome trace timestamps are microseconds; simulation time is
nanoseconds, hence the /1e3 throughout.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional

from .registry import TelemetryRegistry
from .spans import SpanRecorder

__all__ = [
    "spans_to_jsonl",
    "write_jsonl",
    "counters_to_csv",
    "timeseries_to_csv",
    "chrome_trace",
]

#: lifecycle stages that delimit a packet's timeline slices, in order of
#: appearance; everything else becomes an instant marker
_PHASE_EVENTS = frozenset(
    ["injected", "voq_enqueue", "arbitrated", "wire_tx", "switch_rx", "delivered"]
)

#: synthetic process ids for the two chrome-trace tracks
_PID_COUNTERS = 0
_PID_PACKETS = 1


# -- JSONL ---------------------------------------------------------------------


def spans_to_jsonl(spans: SpanRecorder) -> str:
    """One compact JSON object per line, in recording order."""
    lines = [json.dumps(e, separators=(",", ":")) for e in spans.events]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(spans: SpanRecorder, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(spans_to_jsonl(spans))


# -- CSV -----------------------------------------------------------------------


def counters_to_csv(registry: TelemetryRegistry) -> str:
    """Final values: ``name,kind,value`` plus flattened histogram stats."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["name", "kind", "value"])
    for name in registry.names():
        m = registry.get(name)
        if m.kind == "histogram":
            for stat, v in m.summary().items():
                w.writerow([f"{name}.{stat}", "histogram", f"{v:g}"])
        else:
            w.writerow([name, m.kind, f"{m.read():g}"])
    return buf.getvalue()


def _num(v: float) -> str:
    """``%g`` text where it is exact, else the shortest exact repr: a
    level reads as it always did, and a rate keeps every digit, so rate
    x width summed over windows gives back its counter."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def timeseries_to_csv(windows) -> str:
    """The time series in long format, ``t_ns,name,value``: one row per
    point of every track in ``windows.counter_tracks()``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t_ns", "name", "value"])
    for name, points in windows.counter_tracks():
        for t, v in points:
            w.writerow([f"{t:g}", name, _num(v)])
    return buf.getvalue()


# -- Chrome trace --------------------------------------------------------------


def _meta(pid: int, name: str, tid: Optional[int] = None) -> Dict:
    ev = {
        "name": "process_name" if tid is None else "thread_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": name},
    }
    if tid is not None:
        ev["tid"] = tid
    return ev


def chrome_trace(spans: Optional[SpanRecorder] = None, windows=None) -> Dict:
    """Build a trace-event dict (``json.dump`` it yourself).

    Every track of ``windows.counter_tracks()`` (a
    :class:`repro.observe.TimeSeriesEngine`) becomes a counter row, so
    the time series shows up alongside the packet spans in Perfetto.
    """
    events: List[Dict] = [_meta(_PID_PACKETS, "packets")]

    if spans is not None and len(spans):
        for pid, evs in spans.by_packet().items():
            evs = sorted(evs, key=lambda e: e["t"])
            first = evs[0]
            label = f"pkt {pid}"
            if "src" in first and "dst" in first:
                label += f" {first['src']}->{first['dst']}"
            events.append(_meta(_PID_PACKETS, label, tid=pid))
            phases = [e for e in evs if e["ev"] in _PHASE_EVENTS]
            for cur, nxt in zip(phases, phases[1:]):
                args = {
                    k: v for k, v in cur.items() if k not in ("t", "pid", "ev")
                }
                events.append(
                    {
                        "name": cur["ev"],
                        "cat": cur["layer"],
                        "ph": "X",
                        "ts": cur["t"] / 1e3,
                        "dur": max(nxt["t"] - cur["t"], 0.0) / 1e3,
                        "pid": _PID_PACKETS,
                        "tid": pid,
                        "args": args,
                    }
                )
            for e in evs:
                if e["ev"] in _PHASE_EVENTS and e["ev"] != "delivered":
                    continue
                args = {k: v for k, v in e.items() if k not in ("t", "pid", "ev")}
                events.append(
                    {
                        "name": e["ev"],
                        "cat": e["layer"],
                        "ph": "i",
                        "s": "t",
                        "ts": e["t"] / 1e3,
                        "pid": _PID_PACKETS,
                        "tid": pid,
                        "args": args,
                    }
                )

    tracks = windows.counter_tracks() if windows is not None else []
    if tracks:
        events.append(_meta(_PID_COUNTERS, "fabric counters"))
        for name, points in tracks:
            for t, v in points:
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": t / 1e3,
                        "pid": _PID_COUNTERS,
                        "args": {"value": v},
                    }
                )

    return {"traceEvents": events, "displayTimeUnit": "ns"}

