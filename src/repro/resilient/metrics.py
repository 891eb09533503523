"""Harness-level telemetry: what the campaign supervisor did and why.

Simulation metrics live in per-fabric :class:`TelemetryRegistry`
instances; the *execution* layer needs its own registry because one
campaign spans many fabrics across many processes.  All increments
happen in the supervising parent (workers report outcomes over a pipe,
the parent classifies them), so a single process-local registry is both
race-free and complete.

Counters:

* ``harness.cells_retried`` — failed attempts that were rescheduled;
* ``harness.cells_timed_out`` — attempts killed by the per-cell
  wall-clock timeout;
* ``harness.cells_stalled`` — attempts that raised
  :class:`~repro.sim.SimStall` (in-sim watchdog);
* ``harness.worker_deaths`` — worker processes that died without
  reporting (SIGKILL, OOM, nonzero exit);
* ``harness.cells_quarantined`` — cells whose retry budget ran out
  (returned as :class:`~repro.resilient.CellFailure` holes);
* ``harness.cells_resumed`` — cells skipped because a journal already
  held their result;
* ``harness.serial_fallbacks`` — sweeps that degraded to in-process
  serial execution because the pool was irrecoverably broken (process
  spawn failing, or no ``fork`` start method).
"""

from __future__ import annotations

from typing import Dict, List

from ..telemetry.registry import TelemetryRegistry

__all__ = [
    "harness_metrics",
    "harness_counter",
    "harness_summary_rows",
    "reset_harness_metrics",
]

_REGISTRY = TelemetryRegistry()

_COUNTERS = (
    "harness.cells_retried",
    "harness.cells_timed_out",
    "harness.cells_stalled",
    "harness.worker_deaths",
    "harness.cells_quarantined",
    "harness.cells_resumed",
    "harness.serial_fallbacks",
)


def harness_metrics() -> TelemetryRegistry:
    """The process-wide campaign-harness registry."""
    return _REGISTRY


def harness_counter(name: str):
    """Create-or-get a counter under the ``harness.`` prefix."""
    if not name.startswith("harness."):
        name = "harness." + name
    return _REGISTRY.counter(name)


def harness_summary_rows() -> List[List[object]]:
    """Nonzero harness counters as ``[name, value]`` table rows."""
    rows = []
    for name, value in sorted(_REGISTRY.snapshot().items()):
        if value:
            rows.append([name, int(value)])
    return rows


def reset_harness_metrics() -> Dict[str, float]:
    """Zero every harness counter (tests); returns the prior snapshot."""
    snap = _REGISTRY.snapshot()
    for name in list(snap):
        metric = _REGISTRY.get(name)
        if metric.kind == "counter":
            metric.value = 0.0
    return snap


# Pre-register the canonical counters so a summary of an untouched
# harness renders stable names (all zero) rather than nothing.
for _name in _COUNTERS:
    _REGISTRY.counter(_name)
del _name
