"""Smoke test of the end-to-end benchmark; run with ``pytest benchmarks/perf``.

Each workload runs one cell at seed 0 (about a minute in all).  The test
checks what the benchmark promises: the pinned outputs, a traced cell
that reproduces them with at least 95% of its wall time charged to a
layer, the workload and metric names that ``BENCHMARK.json`` declares, a
clean run at a seed other than 0, and a non-zero exit without a result
where the simulator's source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from cells import WORKLOADS  # noqa: E402
from layers import LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_benchmark(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc, proc.stdout.splitlines()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pinned_outputs_plain_and_traced(name):
    workload = WORKLOADS[name]
    _, plain = workload.run(0)
    assert workload.matches_pinned(plain), (plain, workload.pinned)

    tracer = LayerTracer()
    with tracer.installed():
        _, traced = workload.run(0)
    assert traced == plain
    coverage = tracer.metrics(overhead=1.0)["trace.coverage"]
    assert 0.95 <= coverage <= 1.0 + 1e-9, coverage


def test_seed_7_is_clean_and_names_match_benchmark_json():
    proc, lines = _run_benchmark("--seed", "7")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, r in result["workloads"].items():
        assert r["failed"] == 0 and r["correct"], (name, proc.stderr)
        assert {k: m["unit"] for k, m in r["metrics"].items()} == want
        assert all(m["value"] > 0 for m in r["metrics"].values()), r


def test_trace_metric_names_match_benchmark_json():
    proc, lines = _run_benchmark("--workload", "bisection", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"], proc.stderr
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run_benchmark("--workload", "bisection", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="MALBEC-paper bisection at 256 KiB/node deadlocks: 3,328 of 32,768 "
    "packets stay parked in 128 global-port queues with retry armed and an "
    "empty event queue (predates the fast paths; the heap queue and the "
    "reference NIC/port show it too).  Kept out of the workloads until fixed.",
)
def test_malbec_paper_bisection_drains():
    from repro.network.units import KiB
    from repro.systems import malbec_paper

    fabric = malbec_paper().build()
    n = fabric.topology.n_nodes
    msgs = [fabric.send(i, (i + n // 2) % n, 256 * KiB) for i in range(n)]
    fabric.sim.run()
    fabric.assert_quiescent()
    assert all(m.complete for m in msgs)
