"""Fault-tolerant campaign execution: supervise workers, don't trust them.

Reproducing the paper's figures means campaigns of hundreds-to-thousands
of independent sweep cells (bisection grids, victim/aggressor panels,
chaos degradation curves).  PR 2 taught the simulated fabric to survive
faults; this package teaches the *harness* the same lesson:

* :mod:`.pool` — the supervised pool (:func:`run_supervised`), the one
  executor behind :func:`repro.parallel.run_cells`: per-cell wall-clock
  timeouts, worker-death detection, capped deterministic backoff,
  bounded retry budgets, quarantine into :class:`CellFailure` holes,
  graceful degradation to serial execution;
* :mod:`.journal` — the crash-safe per-cell result journal
  (:class:`ResultJournal`) behind ``--journal`` / ``--resume``;
* :mod:`.retry` — the deterministic backoff schedule
  (:class:`RetryPolicy`);
* :mod:`.metrics` — harness telemetry counters (cells retried / timed
  out / stalled / quarantined / resumed, worker deaths, serial
  fallbacks).

The in-sim half lives in the engine itself: a
:meth:`~repro.sim.Simulator.watchdog` raises a structured
:class:`~repro.sim.SimStall` (with the fabric's quiescence snapshot
attached) so a wedged cell is killed, classified, and retried or
quarantined instead of hanging the pool forever.

Every sweep runs on the supervised pool.  Without a config it gets no
timeout, no retry and no journal, and its first failing cell (a killed
worker included) raises :class:`~repro.parallel.CellExecutionError`;
``run_cells(..., resilience=...)`` and the ``--cell-timeout`` /
``--retries`` / ``--journal`` / ``--resume`` CLI flags turn on the
rest.
"""

from .journal import ResultJournal, cell_fingerprint, worker_fingerprint
from .metrics import (
    harness_counter,
    harness_metrics,
    harness_summary_rows,
)
from .pool import (
    CellFailure,
    PoolDegradedWarning,
    ResilienceConfig,
    run_supervised,
)
from .retry import RetryPolicy

__all__ = [
    "ResilienceConfig",
    "RetryPolicy",
    "CellFailure",
    "PoolDegradedWarning",
    "ResultJournal",
    "run_supervised",
    "worker_fingerprint",
    "cell_fingerprint",
    "harness_metrics",
    "harness_counter",
    "harness_summary_rows",
]
