"""Hierarchical metric registry: counters, gauges, log-binned histograms.

Metric names are dot-separated paths under stable component prefixes —
``switch.3.port.L3->4.voq_depth``, ``nic.0.tx_bytes``, ``router.nonmin``
— so a whole subsystem can be selected with a prefix query
(:meth:`TelemetryRegistry.subtree`).  Three metric kinds:

* :class:`Counter` — monotonically increasing total (bytes, packets,
  marks).  Incremented synchronously on the hot path, so the increment
  is a single float add.
* :class:`Gauge` — instantaneous level.  Either set explicitly or backed
  by a zero-argument callable that is evaluated only when the registry
  is snapshotted (by :class:`repro.observe.TimeSeriesEngine`), so a
  gauge over live component state costs *nothing* between samples.
* :class:`Histogram` — fixed log-spaced bins (hardware-counter style:
  no per-sample allocation, percentiles reconstructed from bin edges).

The registry itself does no locking and schedules no events; it is pure
bookkeeping that the simulation mutates synchronously.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "TelemetryRegistry"]


class Counter:
    """Monotonic total.  ``inc`` is the hot-path operation."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def read(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """Instantaneous level; optionally backed by a callable source."""

    __slots__ = ("name", "value", "fn")

    kind = "gauge"

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.value = 0.0
        self.fn = fn

    def set(self, v: float) -> None:
        self.value = v

    def read(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name})"


class Histogram:
    """Fixed log-spaced bins over ``[lo, hi)`` plus under/overflow bins.

    Bin ``i`` (1-based) covers ``[lo * r**(i-1), lo * r**i)`` where
    ``r = 10 ** (1 / bins_per_decade)``.  Bin 0 catches values below
    ``lo`` (including zero and negatives); the last bin catches values
    at or above ``hi``.  ``observe`` is one ``log10`` and an int index —
    no allocation, no sorting, suitable for per-packet latencies.
    """

    __slots__ = ("name", "lo", "hi", "bins_per_decade", "counts", "n",
                 "total", "vmin", "vmax", "_inv_log_r", "_log_lo", "_nbins")

    kind = "histogram"

    def __init__(self, name: str, lo: float = 1.0, hi: float = 1e9,
                 bins_per_decade: int = 8):
        if lo <= 0 or hi <= lo:
            raise ValueError("need 0 < lo < hi")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be >= 1")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.bins_per_decade = bins_per_decade
        self._log_lo = math.log10(lo)
        self._inv_log_r = float(bins_per_decade)
        self._nbins = int(math.ceil((math.log10(hi) - self._log_lo) * bins_per_decade))
        self.counts = [0] * (self._nbins + 2)  # + underflow + overflow
        self.n = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, v: float) -> None:
        self.n += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v
        if v < self.lo:
            self.counts[0] += 1
        elif v >= self.hi:
            self.counts[-1] += 1
        else:
            idx = int((math.log10(v) - self._log_lo) * self._inv_log_r) + 1
            # float rounding at an exact bin edge can land one past it
            if idx > self._nbins:
                idx = self._nbins
            self.counts[idx] += 1

    # -- summaries -----------------------------------------------------------

    def _bin_edges(self, i: int) -> Tuple[float, float]:
        """Edges of 1-based interior bin *i*."""
        r = 10.0 ** (1.0 / self.bins_per_decade)
        left = self.lo * r ** (i - 1)
        return left, left * r

    def percentile(self, q: float) -> float:
        """Approximate percentile from bin midpoints (geometric mean).

        Cumulative semantics: the answer is the first *occupied* bin
        whose running count reaches ``n * q / 100`` — empty bins never
        advance the cumulative count, so they can neither satisfy the
        target nor push the answer to a later bin.  ``q <= 0`` and
        ``q >= 100`` clamp to the observed extremes, and interior
        midpoints are clamped into ``[vmin, vmax]`` so a percentile
        never lies outside the observed range.
        """
        if self.n == 0:
            return math.nan
        if q <= 0.0:
            return self.vmin
        if q >= 100.0:
            return self.vmax
        target = self.n * q / 100.0
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            seen += c
            if seen >= target:
                if i == 0:
                    return self.vmin
                if i == len(self.counts) - 1:
                    return self.vmax
                left, right = self._bin_edges(i)
                return min(max(math.sqrt(left * right), self.vmin), self.vmax)
        return self.vmax

    def mean(self) -> float:
        return self.total / self.n if self.n else math.nan

    def read(self) -> float:
        """Snapshot scalar (the time series rates it): the observation count."""
        return float(self.n)

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
        return f"Histogram({self.name}, n={self.n})"


class TelemetryRegistry:
    """Name-keyed metric store with create-or-get semantics.

    Registration is idempotent: asking for an existing name returns the
    existing metric (and raises if the kind differs), so independent
    components can share totals without coordination.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    # -- registration --------------------------------------------------------

    def _register(self, name: str, factory, kind: str):
        m = self._metrics.get(name)
        if m is not None:
            if m.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {m.kind}, not {kind}"
                )
            return m
        m = factory()
        self._metrics[name] = m
        return m

    def counter(self, name: str) -> Counter:
        return self._register(name, lambda: Counter(name), "counter")

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        g = self._register(name, lambda: Gauge(name, fn), "gauge")
        if fn is not None:
            g.fn = fn
        return g

    def histogram(self, name: str, lo: float = 1.0, hi: float = 1e9,
                  bins_per_decade: int = 8) -> Histogram:
        return self._register(
            name, lambda: Histogram(name, lo, hi, bins_per_decade), "histogram"
        )

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        return self._metrics[name]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def subtree(self, prefix: str) -> Dict[str, object]:
        """All metrics whose name equals *prefix* or starts with it + '.'."""
        dotted = prefix + "."
        return {
            n: m
            for n, m in self._metrics.items()
            if n == prefix or n.startswith(dotted)
        }

    def snapshot(self) -> Dict[str, float]:
        """Scalar view of every metric (gauge callables evaluated now)."""
        return {n: self._metrics[n].read() for n in sorted(self._metrics)}
