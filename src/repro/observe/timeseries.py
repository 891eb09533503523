"""Windowed time-series engine over the telemetry registry.

The one sampler over a :class:`~repro.telemetry.TelemetryRegistry`: sim
time is cut into fixed ``window_ns`` windows, each holding

* **deltas** — the increase of every *cumulative* metric (counters,
  histogram observation counts, and monotone gauges such as
  ``...tx_bytes`` or ``...credit_stall_ns``) over the window, so
  per-window rates and utilizations fall out as ``delta / width``;
* **levels** — a :class:`LevelAgg` sketch of every instantaneous gauge
  (``...voq_depth``, ``...credited_bytes``, ``...cc_queued_bytes`` …)
  sampled ``samples_per_window`` times per window, answering
  mean/min/max and p50–p99 questions without storing every sample.

Windows live in a ring (``max_windows``; None keeps every window), so a
long run can keep a sliding recent view at O(windows x metrics) memory.
``repro observe`` samples four times per window; ``repro trace`` once,
keeping every window, and renders :meth:`TimeSeriesEngine.counter_tracks`
as its Chrome counter tracks and its CSV time series.

The engine ticks by the simulator's one tick rule
(:class:`~repro.sim.PeriodicTick`), so it never keeps a finished run
alive, whatever other samplers share the simulator, and a fabric
without an engine schedules nothing.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..sim.engine import PeriodicTick
from ..telemetry.registry import Histogram, TelemetryRegistry

__all__ = [
    "LevelAgg",
    "TimeWindow",
    "TimeSeriesEngine",
    "CUMULATIVE_SUFFIXES",
]

#: gauge-name suffixes that are monotone totals in disguise (exposed as
#: callable-backed gauges for zero hot-path cost, but semantically
#: counters — windowing must difference, not average, them)
CUMULATIVE_SUFFIXES: Tuple[str, ...] = (
    ".tx_bytes",
    ".rx_bytes",
    ".tx_pkts",
    ".rx_pkts",
    ".acks_marked",
    ".marks",
    ".drops",
    ".credit_stall_ns",
    ".credit_stalls",
    ".pkts_forwarded",
    ".pkts_dropped",
    ".pkts_injected",
    ".messages_sent",
    ".messages_completed",
    ".events_processed",
    ".reroutes",
    ".no_route",
    ".retransmits",
    ".dup_pkts",
    ".giveups",
    ".events",
)

#: raw samples kept per level aggregate before spilling to a sketch
_RAW_CAP = 64

#: sketch layout of every LevelAgg (coarse on purpose: 4 bins/decade
#: over 12 decades is 50 ints)
_SKETCH = dict(lo=1.0, hi=1e12, bins_per_decade=4)


class LevelAgg:
    """Aggregate of one gauge's samples in one window.

    Exact (raw samples) up to :data:`_RAW_CAP` observations; beyond that
    everything spills into a log-binned :class:`Histogram` sketch, so a
    window's memory stays bounded however finely it is sampled.
    """

    __slots__ = ("n", "total", "vmin", "vmax", "samples", "sketch")

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.samples: Optional[List[float]] = []
        self.sketch: Optional[Histogram] = None

    def observe(self, v: float) -> None:
        self.n += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v
        if self.sketch is not None:
            self.sketch.observe(v)
        else:
            self.samples.append(v)
            if len(self.samples) > _RAW_CAP:
                self._spill()

    def _spill(self) -> None:
        self.sketch = Histogram("level", **_SKETCH)
        for s in self.samples:
            self.sketch.observe(s)
        self.samples = None

    # -- summaries ------------------------------------------------------------

    def mean(self) -> float:
        return self.total / self.n if self.n else math.nan

    def percentile(self, q: float) -> float:
        if self.n == 0:
            return math.nan
        if self.sketch is not None:
            return self.sketch.percentile(q)
        from ..analysis.stats import percentile  # deferred: pulls in numpy

        return percentile(self.samples, q)

    def summary(self) -> Dict[str, float]:
        if self.n == 0:
            return {"n": 0}
        return {
            "n": self.n,
            "mean": self.mean(),
            "min": self.vmin,
            "max": self.vmax,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LevelAgg(n={self.n}, mean={self.mean():g})"


class TimeWindow:
    """One ``[t0, t1)`` slice of the run: metric deltas + level sketches.

    Plain data (floats, dicts, :class:`LevelAgg`), so it pickles across
    a sweep's process boundary.
    """

    __slots__ = ("t0", "t1", "deltas", "levels")

    def __init__(self, t0: float, t1: float,
                 deltas: Optional[Dict[str, float]] = None,
                 levels: Optional[Dict[str, LevelAgg]] = None):
        self.t0 = t0
        self.t1 = t1
        self.deltas = deltas if deltas is not None else {}
        self.levels = levels if levels is not None else {}

    @property
    def width(self) -> float:
        return self.t1 - self.t0

    def rate(self, name: str) -> float:
        """Per-ns rate of a cumulative metric over this window."""
        w = self.width
        return self.deltas.get(name, 0.0) / w if w > 0 else 0.0

    def utilization(self, name: str, bandwidth: float) -> float:
        """Fraction of ``bandwidth`` (B/ns) a ``...tx_bytes`` delta used."""
        w = self.width
        return self.deltas.get(name, 0.0) / (bandwidth * w) if w > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TimeWindow([{self.t0:g}, {self.t1:g}), "
                f"{len(self.deltas)} deltas, {len(self.levels)} levels)")


class TimeSeriesEngine:
    """Cuts a run into fixed sim-time windows over a telemetry registry.

    Parameters
    ----------
    sim, registry:
        The simulator to schedule ticks on and the registry to sample.
    window_ns:
        Window width in simulated nanoseconds.
    samples_per_window:
        Level-gauge sampling ticks per window (the tick interval is
        ``window_ns / samples_per_window``; deltas are exact regardless).
    max_windows:
        Ring capacity — older windows fall off the front; None keeps
        every window.
    capacities:
        Optional ``{"<base>.tx_bytes": bandwidth_B_per_ns}`` map that
        :meth:`counter_tracks` turns into link-utilization tracks.
    """

    def __init__(
        self,
        sim,
        registry: TelemetryRegistry,
        window_ns: float = 10_000.0,
        samples_per_window: int = 4,
        max_windows: Optional[int] = 256,
        capacities: Optional[Dict[str, float]] = None,
    ):
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if samples_per_window < 1:
            raise ValueError("samples_per_window must be >= 1")
        if max_windows is not None and max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        self.sim = sim
        self.registry = registry
        self.window_ns = float(window_ns)
        self.samples_per_window = samples_per_window
        self.capacities: Dict[str, float] = dict(capacities or {})
        #: the finished-window ring
        self.windows: Deque[TimeWindow] = deque(maxlen=max_windows)
        self._tick = PeriodicTick(
            sim, self.window_ns / samples_per_window, self._sample
        )
        self._started = False
        self._ticks_in_window = 0
        self._open_t0 = 0.0
        self._open_snap: Dict[str, float] = {}
        self._open_levels: Dict[str, LevelAgg] = {}
        self._cumulative: Dict[str, bool] = {}  # name -> classification

    # -- control --------------------------------------------------------------

    def start(self) -> "TimeSeriesEngine":
        """Open the first window at the current sim time and arm the
        tick (idempotent)."""
        if not self._started:
            self._started = True
            self._open_t0 = self.sim.now
            self._open_snap = self.registry.snapshot()
        self._tick.start()
        return self

    def stop(self) -> None:
        """Seal the open window (possibly partial) and stop ticking.

        Works whether the tick is still armed or stopped re-arming when
        the run drained — any time that has passed since the last window
        boundary becomes a final partial window.  Idempotent.
        """
        if not self._started:
            return
        self._tick.stop()
        if self.sim.now > self._open_t0:
            snap = self.registry.snapshot()
            self._observe_levels(snap)
            self._close_window(snap)

    # -- internals -------------------------------------------------------------

    def _is_cumulative(self, name: str) -> bool:
        c = self._cumulative.get(name)
        if c is None:
            kind = self.registry.get(name).kind
            c = kind in ("counter", "histogram") or name.endswith(CUMULATIVE_SUFFIXES)
            self._cumulative[name] = c
        return c

    def _observe_levels(self, snap: Dict[str, float]) -> None:
        levels = self._open_levels
        for name, value in snap.items():
            if self._is_cumulative(name):
                continue
            agg = levels.get(name)
            if agg is None:
                agg = levels[name] = LevelAgg()
            agg.observe(value)

    def _close_window(self, snap: Dict[str, float]) -> None:
        open_snap = self._open_snap
        deltas = {
            name: value - open_snap.get(name, 0.0)
            for name, value in snap.items()
            if self._is_cumulative(name)
        }
        t1 = self.sim.now
        self.windows.append(
            TimeWindow(self._open_t0, t1, deltas, self._open_levels)
        )
        self._open_t0 = t1
        self._open_snap = snap
        self._open_levels = {}
        self._ticks_in_window = 0

    def _sample(self) -> None:
        snap = self.registry.snapshot()
        self._observe_levels(snap)
        self._ticks_in_window += 1
        if self._ticks_in_window >= self.samples_per_window:
            self._close_window(snap)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.windows)

    def counter_tracks(self) -> List[Tuple[str, List[Tuple[float, float]]]]:
        """The engine's one track list, sorted by track name.

        ``(track_name, [(window_end_ns, value), ...])`` pairs:

        * every level gauge under its own name — its mean sample in each
          window it was sampled in (with one sample per window, the
          sampled value itself);
        * every cumulative metric as ``<name>.rate`` — units per ns in
          each window, so ``rate * width`` summed over the windows up to
          an instant is the metric's growth since :meth:`start`;
        * every known capacity as ``<base>.util`` — the fraction of it
          the window's ``<base>.tx_bytes`` delta used.
        """
        windows = self.windows
        tracks = [
            (name, [(w.t1, w.levels[name].mean())
                    for w in windows if name in w.levels])
            for name in {n for w in windows for n in w.levels}
        ]
        tracks += [
            (f"{name}.rate", [(w.t1, w.rate(name)) for w in windows])
            for name in {n for w in windows for n in w.deltas}
        ]
        if windows:
            for cap_name, bw in self.capacities.items():
                base = (cap_name[: -len(".tx_bytes")]
                        if cap_name.endswith(".tx_bytes") else cap_name)
                tracks.append(
                    (f"{base}.util",
                     [(w.t1, w.utilization(cap_name, bw)) for w in windows])
                )
        tracks.sort(key=lambda track: track[0])
        return tracks
