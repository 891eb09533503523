"""Supervised campaign execution: workers are watched, not trusted.

At campaign scale (hundreds to thousands of sweep cells) some worker
will eventually hang, OOM, or be killed.  :func:`run_supervised` is the
one executor behind :func:`repro.parallel.run_cells`, and it treats
each of those as a classified cell failure instead of a lost campaign:

* each cell *attempt* runs in its own forked process reporting over a
  pipe, so a SIGKILL/OOM takes out exactly one attempt and is reported
  as a ``"worker-death"``;
* a per-cell wall-clock timeout kills wedged attempts (``proc.kill``),
  and an in-sim watchdog (:class:`~repro.sim.SimStall`) usually fires
  first, turning an opaque kill into a classified stall with quiescence
  diagnostics;
* failed attempts retry after a capped exponential backoff whose jitter
  is a pure function of the cell's identity (:mod:`.retry`) — bounded by
  the policy's retry budget;
* cells that exhaust the budget are quarantined into structured
  :class:`CellFailure` results: the sweep completes with holes instead
  of aborting (set ``quarantine=False`` to raise instead — finished
  results are journaled first and carried on the exception);
* every completed cell is recorded in a crash-safe
  :class:`~repro.resilient.ResultJournal`, so a killed campaign resumes
  (``resume=True``) computing only the missing cells;
* if the pool becomes irrecoverably broken (process spawn failing,
  platform without ``fork``), the supervisor degrades to serial
  in-process execution — audibly, via :class:`PoolDegradedWarning` and
  the ``harness.serial_fallbacks`` counter.

A call without a config runs the plain sweep: no timeout, no retry,
no journal, and the first failure raises
:class:`~repro.parallel.CellExecutionError` with the finished results.

Determinism contract: cells are independent and results are assembled
by index, so serial == supervised == resumed, cell for cell, regardless
of retries or worker placement.
"""

from __future__ import annotations

import heapq
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..parallel import CellExecutionError, short_repr
from ..sim import engine as _engine
from ..sim.engine import SimStall
from .journal import ResultJournal, cell_fingerprint, worker_fingerprint
from .metrics import harness_counter
from .retry import RetryPolicy

__all__ = [
    "ResilienceConfig",
    "CellFailure",
    "PoolDegradedWarning",
    "run_supervised",
]

#: watchdog wall deadline as a fraction of the supervisor's kill timeout:
#: the in-sim guard should trip first, so the failure comes back as a
#: classified SimStall with diagnostics instead of an opaque SIGKILL.
_WATCHDOG_FRACTION = 0.8

#: how long to wait for a worker to exit after it reported (or was killed)
_JOIN_TIMEOUT_S = 10.0


class PoolDegradedWarning(RuntimeWarning):
    """The supervised pool fell back to serial in-process execution."""


@dataclass
class CellFailure:
    """A quarantined cell: the hole left in a sweep that kept going.

    ``kind`` classifies the terminal failure: ``"timeout"`` (supervisor
    killed a wedged attempt), ``"worker-death"`` (process died without
    reporting — SIGKILL/OOM/nonzero exit), ``"stall"`` (in-sim watchdog
    raised :class:`~repro.sim.SimStall`; ``diagnostics`` then holds its
    quiescence snapshot), or ``"error"`` (the worker raised).
    """

    index: int
    cell: str
    kind: str
    attempts: int
    error: str = ""
    diagnostics: Optional[Dict[str, Any]] = None

    def render(self) -> str:
        msg = (
            f"cell {self.index} quarantined after {self.attempts} attempt(s) "
            f"[{self.kind}]: {self.cell}"
        )
        if self.error:
            msg += f"\n  {self.error.splitlines()[0]}"
        return msg


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for one supervised campaign.

    ``cell_timeout_s`` bounds each attempt's wall clock; ``retry``
    bounds and shapes re-execution; ``journal``/``resume`` make the
    campaign crash-safe and restartable; ``max_events`` /
    ``max_sim_time_ns`` arm additional in-sim watchdog guards inside
    every worker (via :func:`repro.sim.set_default_watchdog`).
    ``in_process=True`` skips worker processes entirely (no kill
    capability — in-sim watchdogs still fire); it exists for the
    degraded path and for fast property tests.
    """

    cell_timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    journal: Optional[str] = None
    resume: bool = False
    quarantine: bool = True
    max_events: Optional[int] = None
    max_sim_time_ns: Optional[float] = None
    in_process: bool = False

    def __post_init__(self):
        if self.resume and not self.journal:
            raise ValueError("resume=True requires a journal path")
        if self.cell_timeout_s is not None and not self.cell_timeout_s > 0:
            raise ValueError(
                f"cell_timeout_s must be positive, got {self.cell_timeout_s}"
            )
        # the same checks every worker's watchdog will apply, at build time
        _engine._watchdog_tuple(self.max_events, self.max_sim_time_ns, None)

    def watchdog_kwargs(self) -> Dict[str, float]:
        wd: Dict[str, float] = {}
        if self.max_events is not None:
            wd["max_events"] = self.max_events
        if self.max_sim_time_ns is not None:
            wd["max_sim_time_ns"] = self.max_sim_time_ns
        if self.cell_timeout_s is not None:
            wd["wall_deadline_s"] = self.cell_timeout_s * _WATCHDOG_FRACTION
        return wd


#: the config of a sweep run without one: no timeout, no retry, no
#: journal; the first failing cell raises with the finished results.
_PLAIN = ResilienceConfig(retry=RetryPolicy(retries=0), quarantine=False)


def _child_main(conn, worker, cell, watchdog) -> None:
    """One cell attempt, in its own process.  Reports exactly one message:
    ``("ok", result)`` / ``("stall", str, dict)`` / ``("error", str)``."""
    try:
        if watchdog:
            _engine.set_default_watchdog(**watchdog)
        result = worker(cell)
        try:
            conn.send(("ok", result))
        except Exception as exc:
            conn.send(("error", f"result not transferable: {exc!r}"))
    except SimStall as stall:
        conn.send(("stall", str(stall), stall.to_dict()))
    except BaseException as exc:
        conn.send(
            ("error", f"{type(exc).__name__}: {exc}\n"
                      f"{traceback.format_exc(limit=20)}")
        )
    finally:
        conn.close()


class _Supervisor:
    """Shared bookkeeping for both execution engines (procs / inline)."""

    def __init__(
        self,
        worker: Callable[[Any], Any],
        cells: List[Any],
        fps: List[str],
        worker_fp: str,
        journal: Optional[ResultJournal],
        config: ResilienceConfig,
    ):
        self.worker = worker
        self.cells = cells
        self.fps = fps
        self.worker_fp = worker_fp
        self.journal = journal
        self.config = config
        self.results: Dict[int, Any] = {}
        self.attempts: Dict[int, int] = {}

    # -- outcome bookkeeping -------------------------------------------------

    def _completed_ok(self) -> Dict[int, Any]:
        return {
            i: r for i, r in self.results.items()
            if not isinstance(r, CellFailure)
        }

    def success(self, idx: int, result: Any) -> None:
        self.results[idx] = result
        if self.journal is not None:
            self.journal.record_ok(
                self.worker_fp, idx, self.fps[idx], result,
                attempts=self.attempts[idx],
            )

    def failure(
        self,
        idx: int,
        kind: str,
        error: str,
        diagnostics: Optional[Dict[str, Any]] = None,
    ) -> Optional[float]:
        """Classify one failed attempt.  Returns the backoff delay in
        seconds when the cell should retry; ``None`` when it was
        quarantined (or raises, with ``quarantine=False``)."""
        if kind == "timeout":
            harness_counter("cells_timed_out").inc()
        elif kind == "stall":
            harness_counter("cells_stalled").inc()
        elif kind == "worker-death":
            harness_counter("worker_deaths").inc()
        attempts = self.attempts[idx]
        if attempts <= self.config.retry.retries:
            harness_counter("cells_retried").inc()
            return self.config.retry.delay_s(self.fps[idx], attempts)
        if self.journal is not None:
            self.journal.record_failure(
                self.worker_fp, idx, self.fps[idx],
                kind=kind, error=error, attempts=attempts,
                diagnostics=diagnostics,
            )
        if not self.config.quarantine:
            raise CellExecutionError(
                idx,
                short_repr(self.cells[idx]),
                error,
                completed=self._completed_ok(),
                kind=kind,
            )
        harness_counter("cells_quarantined").inc()
        self.results[idx] = CellFailure(
            index=idx,
            cell=short_repr(self.cells[idx]),
            kind=kind,
            attempts=attempts,
            error=error,
            diagnostics=diagnostics,
        )
        return None

    # -- inline engine -------------------------------------------------------

    def run_inline(self, todo: List[int]) -> None:
        """Serial in-process execution with the same retry/quarantine
        semantics.  No kill capability — the in-sim watchdog is the only
        guard against wedged cells — but campaigns still complete with
        holes and journal every finished cell."""
        wd = self.config.watchdog_kwargs()
        for idx in todo:
            while True:
                self.attempts[idx] = self.attempts.get(idx, 0) + 1
                try:
                    if wd:
                        with _engine.default_watchdog(**wd):
                            result = self.worker(self.cells[idx])
                    else:
                        result = self.worker(self.cells[idx])
                except SimStall as stall:
                    delay = self.failure(
                        idx, "stall", str(stall), stall.to_dict()
                    )
                except Exception as exc:
                    delay = self.failure(
                        idx, "error",
                        f"{type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc(limit=20)}",
                    )
                else:
                    self.success(idx, result)
                    break
                if delay is None:
                    break
                time.sleep(delay)

    # -- process engine ------------------------------------------------------

    def run_procs(self, todo: List[int], jobs: int) -> None:
        import multiprocessing as mp
        from multiprocessing import connection as mp_conn

        ctx = mp.get_context("fork")
        timeout = self.config.cell_timeout_s
        wd = self.config.watchdog_kwargs()

        ready = deque(todo)
        waiting: List = []  # heap of (eligible_at_wall, idx)
        running: Dict[Any, tuple] = {}  # conn -> (proc, idx, deadline)
        degraded: List[int] = []

        def spawn(idx: int) -> bool:
            self.attempts[idx] = self.attempts.get(idx, 0) + 1
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_child_main,
                args=(child_conn, self.worker, self.cells[idx], wd),
                daemon=True,
            )
            try:
                proc.start()
            except (OSError, RuntimeError) as exc:
                # Pool irrecoverably broken (fd/pid exhaustion, ...):
                # degrade to serial for this and all remaining cells.
                self.attempts[idx] -= 1
                parent_conn.close()
                child_conn.close()
                harness_counter("serial_fallbacks").inc()
                warnings.warn(
                    f"supervised pool cannot spawn workers ({exc!r}); "
                    f"degrading to serial in-process execution",
                    PoolDegradedWarning,
                    stacklevel=4,
                )
                return False
            child_conn.close()
            deadline = (
                time.perf_counter() + timeout if timeout is not None else None
            )
            running[parent_conn] = (proc, idx, deadline)
            return True

        def reap(conn, kind_if_dead: str) -> None:
            """Collect one finished/dead/killed attempt and classify it."""
            proc, idx, _deadline = running.pop(conn)
            msg = None
            try:
                if conn.poll(0):
                    msg = conn.recv()
            except (EOFError, OSError):
                msg = None
            except Exception as exc:  # undecodable payload
                msg = ("error", f"result transfer failed: {exc!r}")
            finally:
                conn.close()
            proc.join(_JOIN_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
                proc.join(_JOIN_TIMEOUT_S)

            if msg is not None and msg[0] == "ok":
                self.success(idx, msg[1])
                return
            if msg is not None and msg[0] == "stall":
                delay = self.failure(idx, "stall", msg[1], msg[2])
            elif msg is not None:
                delay = self.failure(idx, "error", msg[1])
            else:
                exitcode = proc.exitcode
                delay = self.failure(
                    idx,
                    kind_if_dead,
                    f"worker exited without reporting (exitcode {exitcode})",
                )
            if delay is not None:
                heapq.heappush(waiting, (time.perf_counter() + delay, idx))

        try:
            while ready or waiting or running:
                now = time.perf_counter()
                while waiting and waiting[0][0] <= now:
                    ready.append(heapq.heappop(waiting)[1])
                while ready and len(running) < jobs:
                    idx = ready.popleft()
                    if not spawn(idx):
                        degraded.append(idx)
                        degraded.extend(ready)
                        degraded.extend(i for _, i in waiting)
                        ready.clear()
                        waiting.clear()
                        break

                if not running:
                    if waiting:
                        time.sleep(max(0.0, waiting[0][0] - time.perf_counter()))
                    continue

                tmo = 0.25
                if waiting:
                    tmo = min(tmo, max(0.0, waiting[0][0] - time.perf_counter()))
                for _proc, _idx, deadline in running.values():
                    if deadline is not None:
                        tmo = min(tmo, max(0.0, deadline - time.perf_counter()))
                for conn in mp_conn.wait(list(running), timeout=tmo):
                    reap(conn, "worker-death")

                now = time.perf_counter()
                for conn, (proc, idx, deadline) in list(running.items()):
                    if deadline is not None and now > deadline:
                        proc.kill()
                        proc.join(_JOIN_TIMEOUT_S)
                        reap(conn, "timeout")
        finally:
            for conn, (proc, _idx, _deadline) in running.items():
                proc.kill()
                conn.close()
            for _conn, (proc, _idx, _deadline) in running.items():
                proc.join(_JOIN_TIMEOUT_S)

        if degraded:
            self.run_inline(degraded)


def run_supervised(
    worker: Callable[[Any], Any],
    cells: List[Any],
    jobs: int = 1,
    config: Optional[ResilienceConfig] = None,
) -> List[Any]:
    """Supervised, journaled, resumable map of *worker* over *cells*.

    The executor behind every :func:`repro.parallel.run_cells` call;
    *config* ``None`` runs the plain sweep (no timeout, no retry, no
    journal, first failure raises).  Returns the usual order-stable
    result list; quarantined cells appear as :class:`CellFailure`.
    """
    cells = list(cells)
    config = config if config is not None else _PLAIN
    journal = ResultJournal(config.journal) if config.journal else None
    worker_fp = worker_fingerprint(worker)
    fps = [cell_fingerprint(c) for c in cells]

    results: List[Any] = [None] * len(cells)
    todo: List[int] = []
    resumed = 0
    for i in range(len(cells)):
        hit = (
            journal.lookup_ok(worker_fp, i, fps[i])
            if (journal is not None and config.resume)
            else None
        )
        if hit is not None:
            results[i] = hit[0]
            resumed += 1
        else:
            todo.append(i)
    if resumed:
        harness_counter("cells_resumed").inc(resumed)
    if not todo:
        return results

    sup = _Supervisor(worker, cells, fps, worker_fp, journal, config)
    if config.in_process:
        sup.run_inline(todo)
    else:
        import multiprocessing as mp

        try:
            mp.get_context("fork")
            have_fork = True
        except ValueError:  # pragma: no cover - non-POSIX platforms
            have_fork = False
        if not have_fork:  # pragma: no cover - non-POSIX platforms
            harness_counter("serial_fallbacks").inc()
            warnings.warn(
                "supervised pool requires the fork start method; degrading "
                "to serial in-process execution",
                PoolDegradedWarning,
                stacklevel=3,
            )
            sup.run_inline(todo)
        else:
            sup.run_procs(todo, max(1, min(jobs, len(todo))))

    for i in todo:
        results[i] = sup.results[i]
    return results
