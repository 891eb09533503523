"""Parallel sweep runner for embarrassingly-parallel parameter grids.

Every heatmap, allocation-policy grid, and degradation curve in the
reproduction is a set of *independent cells*: each builds its own fresh
fabric from a config and returns plain data.  :func:`run_cells` fans
those cells out over worker processes while keeping the results
**deterministic and order-stable**:

* results are assembled by cell index, so the result list lines up
  with the input list no matter which worker ran which cell or in what
  order they finished;
* each cell must carry everything it needs (config + parameters + its
  own seed) — workers share no state, so a cell computes the same value
  in any process, including the parent.  Per-cell seeds should be
  derived with :func:`cell_seed` rather than a shared RNG stream;
* simulation state is process-local by construction; the only
  cross-cell globals in the package are diagnostic id counters
  (packet/message ids), which never feed back into behaviour.

There is one executor: the supervised pool of :mod:`repro.resilient`,
which forks one process per cell attempt.  A forked attempt inherits
the worker, so closures and lambdas run in parallel like module-level
functions, and a worker that is SIGKILLed or OOM-killed fails its cell
instead of blocking the sweep.  ``REPRO_JOBS`` overrides the default
worker count.

Without ``resilience=`` a sweep runs with no timeout, no retry and no
journal, and the first failing cell raises :class:`CellExecutionError`,
which names the cell (index + repr) and carries every completed result
on ``.completed``.  Campaigns that must *survive* faults — hung cells,
OOM-killed workers, restarts — pass a
:class:`repro.resilient.ResilienceConfig` for per-cell timeouts, retry
with deterministic backoff, quarantine, a crash-safe journal and
``--resume``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterable, List, Optional

from .sim.rng import stable_hash

__all__ = [
    "run_cells",
    "default_jobs",
    "cell_seed",
    "CellExecutionError",
]


class CellExecutionError(RuntimeError):
    """A sweep cell failed; completed results are preserved, not lost.

    Attributes: ``index`` (position of the failing cell), ``cell`` (its
    truncated repr), ``kind`` (failure class, e.g. ``"error"`` /
    ``"worker-death"`` / ``"timeout"``), and ``completed`` — a
    ``{index: result}`` dict of every cell that finished before the
    sweep aborted (already journaled when a journal is configured).
    """

    def __init__(
        self,
        index: int,
        cell_repr: str,
        message: str,
        completed: Optional[Dict[int, Any]] = None,
        kind: str = "error",
    ):
        self.index = index
        self.cell = cell_repr
        self.kind = kind
        self.completed = dict(completed or {})
        super().__init__(
            f"cell {index} ({cell_repr}) failed [{kind}]: {message} — "
            f"{len(self.completed)} completed cell result(s) preserved on "
            f".completed"
        )


def short_repr(obj: Any, limit: int = 120) -> str:
    """``repr`` clamped for error messages and failure records."""
    r = repr(obj)
    return r if len(r) <= limit else r[: limit - 3] + "..."


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else the machine's cores."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer, got {env!r}"
            )
        return jobs
    return os.cpu_count() or 1


def cell_seed(*key: Any) -> int:
    """A deterministic seed for one sweep cell.

    Derived from the cell's own identity (e.g. ``cell_seed("heatmap",
    row, col, base_seed)``), never from a shared RNG stream — so a cell
    gets the same seed whether the sweep runs serially, in parallel, in
    any order, or restarted from the middle.
    """
    return stable_hash("cell", *key)


def run_cells(
    worker: Callable[[Any], Any],
    cells: Iterable[Any],
    jobs: Optional[int] = None,
    *,
    resilience: "Optional[Any]" = None,
) -> List[Any]:
    """Map *worker* over *cells* in forked worker processes.

    Returns ``[worker(cell) for cell in cells]`` — same values, same
    order, regardless of *jobs* (``None`` = :func:`default_jobs`).
    Every call runs on :func:`repro.resilient.run_supervised`.  Without
    *resilience*, the first failing cell — an exception, or a worker
    that died without reporting — raises :class:`CellExecutionError`
    naming the cell and carrying the finished results.

    *resilience* (a :class:`repro.resilient.ResilienceConfig`) adds
    per-cell wall-clock timeouts, capped deterministic-jitter retry,
    quarantine into :class:`repro.resilient.CellFailure` holes, a
    crash-safe result journal, and resume.
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    from .resilient import run_supervised  # resilient imports this module

    return run_supervised(worker, cells, jobs=jobs, config=resilience)
