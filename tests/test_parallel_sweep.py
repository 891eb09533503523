"""The parallel sweep runner must be invisible in the results.

``repro.parallel.run_cells`` fans independent simulation cells over
forked worker processes; its whole contract is that *jobs* never
changes a value: cells carry everything they need, per-cell seeds come
from the cell's identity, and results are assembled by cell index.
These tests pin in-process == forked cell-for-cell on the two real
consumers (the Fig. 9 heatmap grid and the chaos degradation curve)
plus the runner's edge cases and the CLI's harness arguments.

The machine may have a single core — the pool still runs with
``jobs=2`` worker processes, which is exactly what the determinism
claim must survive.
"""

import os

import pytest

from repro.cli import main as cli_main
from repro.faults import degradation_curve
from repro.network.fabric import Fabric
from repro.parallel import cell_seed, default_jobs, run_cells
from repro.resilient import ResilienceConfig
from repro.sweeps import aggressor_rows, micro_victims, run_heatmap
from repro.systems import malbec_mini

# the serial reference: the same cells, run in this process, unforked
IN_PROCESS = ResilienceConfig(in_process=True)


def _square(x):
    return x * x


def test_run_cells_matches_serial_map():
    cells = list(range(7))
    assert run_cells(_square, cells, jobs=1) == [_square(c) for c in cells]
    assert run_cells(_square, cells, jobs=3) == [_square(c) for c in cells]


def test_run_cells_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_cells(_square, [1, 2], jobs=0)


def test_run_cells_runs_closures_in_worker_processes():
    # A forked attempt inherits the worker, so a closure needs no
    # pickling: it runs in parallel like a module-level function.
    offset = 10

    def shifted(x):
        return x + offset

    cells = [1, 2, 3]
    pids = run_cells(lambda _: os.getpid(), cells, jobs=2)
    assert os.getpid() not in pids
    assert run_cells(shifted, cells, jobs=2) == [shifted(c) for c in cells]


def test_cell_seed_is_stable_and_distinct():
    assert cell_seed("heatmap", 0, 0) == cell_seed("heatmap", 0, 0)
    assert cell_seed("heatmap", 0, 0) != cell_seed("heatmap", 0, 1)


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "zero")
    with pytest.raises(ValueError):
        default_jobs()
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() == (os.cpu_count() or 1)


def test_heatmap_serial_equals_parallel():
    victims = {
        k: f
        for k, f in micro_victims().items()
        if k in ("pingpong-8B", "barrier")
    }
    rows = aggressor_rows()[:2]
    cfg = malbec_mini()
    nodes = list(range(16))
    serial = run_heatmap(
        cfg, victims, nodes, rows=rows, max_ns=40e6, resilience=IN_PROCESS
    )
    fanned = run_heatmap(cfg, victims, nodes, rows=rows, max_ns=40e6, jobs=2)
    assert serial == fanned  # labels and every grid value, bit for bit


def test_degradation_curve_serial_equals_parallel():
    cfg = malbec_mini()
    serial = degradation_curve(
        cfg, ks=[0, 1], max_ns=20e6, resilience=IN_PROCESS
    )
    fanned = degradation_curve(cfg, ks=[0, 1], max_ns=20e6, jobs=2)
    assert serial == fanned
    assert serial[0]["relative"] == 1.0
    assert all(r["messages_completed"] == r["messages_sent"] for r in serial)


@pytest.mark.parametrize(
    "cmdline, repro_jobs",
    [
        ("heatmap --jobs -1", None),
        ("heatmap --retries -1", None),
        ("heatmap --cell-timeout 0", None),
        ("allocation --jobs -2", None),
        ("allocation --cell-timeout -1", None),
        ("chaos --curve --retries -3", None),
        ("chaos --jobs -1", None),
        ("chaos --cell-timeout 0", None),
        ("observe --cell-timeout -1", None),
        # counts and budgets: a negative message count or a NaN budget
        # used to print a lossless chaos run and exit 0, and a negative
        # fault count or an empty observe window died inside the run
        ("chaos --messages -5", None),
        ("chaos --budget-ms nan", None),
        ("chaos --faults -1", None),
        ("chaos --switch-faults -1", None),
        ("observe --window-us 0", None),
        ("observe --windows 0", None),
        ("congestion --budget-ms -1", None),
        ("heatmap --budget-ms inf", None),
        ("allocation --budget-ms 0", None),
        # negative counts and sizes, zero iterations or intervals, a
        # fraction outside [0, 1] and a node count too small to split into
        # victims and aggressors used to run (a -0ns latency), exit 1 or
        # die after the parse with a traceback
        ("report --messages -5", None),
        ("trace --messages -3", None),
        ("trace --scrape-interval-us 0", None),
        ("trace --sample-rate 2", None),
        ("observe --top-k -1", None),
        ("observe --size -1", None),
        ("latency --iterations -1", None),
        ("latency --size -8", None),
        ("congestion --nodes -4", None),
        ("congestion --nodes 1", None),
        ("congestion --iterations 0", None),
        ("congestion --victim-fraction nan", None),
        ("heatmap --nodes -2", None),
        ("heatmap --nodes 4", None),
        # a zero or negative ranks-per-node started sweep cells, a zero or
        # negative topology radix or host count died with a traceback, a
        # negative forced-failure count ran the seeded storm instead, and
        # a qos minimum share outside [0, 1] died inside the run
        ("heatmap --ppn 0 --nodes 16", None),
        ("allocation --ppn -1 --nodes 16", None),
        ("topology --radix 0", None),
        ("topology --hosts -1", None),
        ("chaos --fail-global -1", None),
        ("qos --min1 nan", None),
        ("qos --min1 1.5", None),
        ("qos --min2 -0.1", None),
        ("chaos --curve", "0"),
        ("heatmap --jobs 0", "-4"),
    ],
)
def test_bad_harness_arguments_fail_before_any_fabric_is_built(
    cmdline, repro_jobs, monkeypatch, capsys
):
    def no_fabric(self, *args, **kwargs):
        raise AssertionError("built a fabric before rejecting the arguments")

    monkeypatch.setattr(Fabric, "__init__", no_fabric)
    if repro_jobs is None:
        with pytest.raises(SystemExit) as exc:
            cli_main(cmdline.split())
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
    else:
        monkeypatch.setenv("REPRO_JOBS", repro_jobs)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            cli_main(cmdline.split())
