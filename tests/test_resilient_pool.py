"""Supervised pool: killed, hung, stalled and crashing workers.

These tests exercise the campaign supervisor end to end with real
forked worker processes: a SIGKILLed worker is retried to the same
answer a healthy run produces, a wedged worker is killed at the cell
timeout, runaway simulations come back as classified stalls, cells
that exhaust the retry budget are quarantined into ``CellFailure``
holes (or raise with every finished result preserved), and a journaled
sweep resumes cell-for-cell identical after a crash.

Backoff delays are kept tiny — determinism of the *schedule* is pinned
separately in test_resilient_properties.py.
"""

import math
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.cli import main as cli_main
from repro.parallel import CellExecutionError, run_cells
from repro.resilient import (
    CellFailure,
    ResilienceConfig,
    ResultJournal,
    RetryPolicy,
    harness_metrics,
    run_supervised,
)

FAST_RETRY = RetryPolicy(retries=2, base_delay_s=0.01, cap_delay_s=0.05)


def _square(x):
    return x * x


def _kill_once(cell):
    """SIGKILL this worker process on the first attempt per flag file."""
    val, flag = cell
    if not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return val * 10


def _always_die(cell):
    os.kill(os.getpid(), signal.SIGKILL)


def _hang(cell):
    time.sleep(30)
    return cell


def _runaway_sim(cell):
    from repro.sim import Simulator

    sim = Simulator()

    def tick():
        sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return cell


def _fail_odd(x):
    if x % 2:
        raise ValueError(f"odd cell {x}")
    return x * 2


def _counters():
    return harness_metrics().snapshot()


def test_supervised_matches_plain_run_cells():
    cells = list(range(6))
    plain = run_cells(_square, cells, jobs=2)
    supervised = run_cells(
        _square, cells, jobs=2, resilience=ResilienceConfig(retry=FAST_RETRY)
    )
    assert supervised == plain


def test_sigkilled_worker_is_retried_to_identical_result(tmp_path):
    cells = [(i, str(tmp_path / f"flag-{i}")) for i in range(4)]
    before = _counters()
    got = run_supervised(
        _kill_once, cells, jobs=2, config=ResilienceConfig(retry=FAST_RETRY)
    )
    assert got == [i * 10 for i in range(4)]  # == uninterrupted run
    after = _counters()
    assert after["harness.worker_deaths"] - before["harness.worker_deaths"] == 4
    assert after["harness.cells_retried"] - before["harness.cells_retried"] == 4
    assert after["harness.cells_quarantined"] == before["harness.cells_quarantined"]


def test_timeout_kills_wedged_worker_and_quarantines():
    before = _counters()
    got = run_supervised(
        _hang,
        ["wedged"],
        jobs=1,
        config=ResilienceConfig(
            cell_timeout_s=0.5,
            retry=RetryPolicy(retries=0),
            # no watchdog guards: sleep() never yields to a simulator,
            # so the supervisor's kill is the guard under test
        ),
    )
    (failure,) = got
    assert isinstance(failure, CellFailure)
    assert failure.kind == "timeout"
    assert failure.attempts == 1
    after = _counters()
    assert after["harness.cells_timed_out"] - before["harness.cells_timed_out"] == 1
    assert after["harness.cells_quarantined"] - before["harness.cells_quarantined"] == 1


def test_runaway_sim_classified_as_stall_with_diagnostics():
    got = run_supervised(
        _runaway_sim,
        ["spin"],
        jobs=1,
        config=ResilienceConfig(
            max_events=5000, retry=RetryPolicy(retries=1, base_delay_s=0.01)
        ),
    )
    (failure,) = got
    assert isinstance(failure, CellFailure)
    assert failure.kind == "stall"
    assert failure.attempts == 2  # stall is deterministic: retried once, then out
    assert "event budget" in failure.error
    assert failure.diagnostics["events_processed"] == 5000


def test_quarantine_false_raises_with_completed_results():
    before = _counters()
    with pytest.raises(CellExecutionError) as exc:
        run_supervised(
            _always_die,
            list(range(3)),
            jobs=1,
            config=ResilienceConfig(
                retry=RetryPolicy(retries=0), quarantine=False
            ),
        )
    assert exc.value.kind == "worker-death"
    assert exc.value.index == 0
    after = _counters()
    # the raised cell is an error, not a quarantined hole
    assert after["harness.worker_deaths"] - before["harness.worker_deaths"] == 1
    assert after["harness.cells_quarantined"] == before["harness.cells_quarantined"]


def test_worker_exception_quarantined_with_traceback():
    got = run_supervised(
        _fail_odd,
        [0, 1, 2, 3],
        jobs=2,
        config=ResilienceConfig(retry=RetryPolicy(retries=0)),
    )
    assert got[0] == 0 and got[2] == 4  # sweep completed around the holes
    assert isinstance(got[1], CellFailure) and isinstance(got[3], CellFailure)
    assert got[1].kind == "error"
    assert "odd cell 1" in got[1].error
    assert "ValueError" in got[1].error


def test_journal_resume_skips_completed_cells(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    cells = list(range(5))
    first = run_supervised(
        _square, cells, jobs=2, config=ResilienceConfig(journal=journal)
    )
    # simulate a crash that lost the tail: keep only the first 3 records
    kept = ResultJournal(journal).records()[:3]
    rewritten = ResultJournal(str(tmp_path / "truncated.jsonl"))
    for rec in kept:
        rewritten._records[(rec["worker"], rec["index"], rec["cell"])] = rec
    rewritten._flush()

    before = _counters()
    resumed = run_supervised(
        _square,
        cells,
        jobs=2,
        config=ResilienceConfig(journal=rewritten.path, resume=True),
    )
    assert resumed == first == [c * c for c in cells]
    after = _counters()
    assert after["harness.cells_resumed"] - before["harness.cells_resumed"] == 3


def test_resume_recomputes_when_cell_content_changes(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    run_supervised(
        _square, [2, 3], jobs=1, config=ResilienceConfig(journal=journal)
    )
    before = _counters()
    got = run_supervised(
        _square,
        [2, 4],  # cell 1 edited: its journal record must not be reused
        jobs=1,
        config=ResilienceConfig(journal=journal, resume=True),
    )
    assert got == [4, 16]
    after = _counters()
    assert after["harness.cells_resumed"] - before["harness.cells_resumed"] == 1


def test_in_process_engine_same_semantics(tmp_path):
    journal = str(tmp_path / "inline.jsonl")
    got = run_supervised(
        _fail_odd,
        [0, 1, 2],
        jobs=1,
        config=ResilienceConfig(
            in_process=True, journal=journal, retry=RetryPolicy(retries=0)
        ),
    )
    assert got[0] == 0 and got[2] == 4
    assert isinstance(got[1], CellFailure) and got[1].kind == "error"
    recs = {r["index"]: r for r in ResultJournal(journal).records()}
    assert recs[0]["status"] == "ok"
    assert recs[1]["status"] == "failed" and recs[1]["kind"] == "error"


def test_resume_requires_journal():
    with pytest.raises(ValueError, match="journal"):
        ResilienceConfig(resume=True)


@pytest.mark.parametrize(
    "field, value",
    [
        ("cell_timeout_s", math.nan),
        ("max_events", -1),
        ("max_events", 0),
        ("max_events", math.nan),
        ("max_sim_time_ns", math.nan),
        ("max_sim_time_ns", 0),
        ("max_sim_time_ns", -5.0),
    ],
)
def test_resilience_config_rejects_bad_limits_at_construction(field, value):
    # otherwise a NaN timeout never kills an attempt, and a bad watchdog
    # limit fails every cell inside its worker
    with pytest.raises(ValueError, match=field):
        ResilienceConfig(**{field: value})


def test_run_cells_error_preserves_completed_results():
    """Satellite: a failing cell no longer throws away finished cells —
    the error names the cell and carries every completed result."""
    with pytest.raises(CellExecutionError) as exc:
        run_cells(_fail_odd, [0, 2, 4, 5, 6], jobs=1)
    err = exc.value
    assert err.index == 3
    assert "5" in err.cell
    assert err.completed == {0: 0, 1: 4, 2: 8}
    assert "3 completed cell result(s)" in str(err)


def test_run_cells_parallel_error_preserves_completed_results():
    with pytest.raises(CellExecutionError) as exc:
        run_cells(_fail_odd, [0, 2, 3, 4], jobs=2)
    err = exc.value
    assert err.index == 2
    assert err.completed.get(0) == 0 and err.completed.get(1) == 4


_PLAIN_SWEEP_KILL = textwrap.dedent("""
    import os, signal

    from repro.parallel import CellExecutionError, run_cells
    from repro.resilient import harness_metrics

    def worker(cell):
        if cell == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return cell * 10

    try:
        run_cells(worker, range(8), jobs=2)
    except CellExecutionError as err:
        snap = harness_metrics().snapshot()
        print(err.kind, err.index, err.cell,
              int(snap["harness.worker_deaths"]),
              int(snap["harness.cells_quarantined"]))
""")


def test_plain_run_cells_reports_a_killed_worker_instead_of_hanging():
    """A sweep with no supervision flags still runs on the supervised
    pool, so an OOM-style SIGKILL fails its cell fast.  The sweep runs
    in a child interpreter: a hang fails this test at the timeout
    instead of hanging the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _PLAIN_SWEEP_KILL],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("run_cells hung on a SIGKILLed worker")
    assert proc.returncode == 0, proc.stderr
    # kind, index, cell repr, worker deaths, quarantined cells
    assert proc.stdout.split() == ["worker-death", "3", "3", "1", "0"]


def test_allocation_prints_table_when_a_policy_is_fully_quarantined(capsys):
    # a 1 ms budget quarantines every cell of every policy: each policy's
    # statistics render as "-" instead of crashing on an empty array
    rc = cli_main([
        "allocation", "--system", "malbec", "--cell-timeout", "0.001",
        "--retries", "0", "--jobs", "2",
    ])
    assert rc == 1
    out, err = capsys.readouterr()
    for policy in ("linear", "interleaved", "random"):
        assert f"{policy} |        - |     - |     -" in out
    assert "harness.cells_quarantined" in out
    assert "QUARANTINED" in err
