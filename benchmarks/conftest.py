"""Shared infrastructure for the figure-reproduction benchmarks.

Every module regenerates one table/figure of the paper: it runs the
experiment once inside ``benchmark.pedantic`` (so ``pytest benchmarks/
--benchmark-only`` times it), asserts the paper's *shape* claims, prints
the paper-style table, and appends it to ``benchmarks/results/``.

Scale: the default configs are the ``*_mini`` systems (same group
structure as the paper's machines, fewer nodes).  Set ``REPRO_SCALE=paper``
to run the full-size systems (slow: hours in pure Python).
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"
BENCH_ENGINE_JSON = RESULTS_DIR / "BENCH_engine.json"

# The reference oracles the engine benches compare against live in the
# test tree (``tests.oracles``), importable from the repository root.
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))


def paper_scale() -> bool:
    return os.environ.get("REPRO_SCALE", "mini") == "paper"


def get_systems():
    """(aries_config, slingshot_malbec, slingshot_shandy) at bench scale."""
    from repro.systems import (
        crystal_mini,
        crystal_paper,
        malbec_mini,
        malbec_paper,
        shandy_mini,
        shandy_paper,
    )

    if paper_scale():
        return crystal_paper, malbec_paper, shandy_paper
    return crystal_mini, malbec_mini, shandy_mini


@pytest.fixture
def report():
    """Collects figure output; prints it and saves it to results/."""
    chunks = []

    def emit(text: str) -> None:
        chunks.append(text)

    yield emit
    if chunks:
        out = "\n".join(chunks)
        print("\n" + out)


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def provenance() -> dict:
    """Commit, interpreter, CPU model and UTC time, now (the same record
    ``benchmarks/perf/run.py --out`` writes)."""
    spec = importlib.util.spec_from_file_location("perf_run", HERE / "perf" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.provenance()


def save_metrics(name: str, metrics: dict) -> None:
    """Merge one bench's machine-readable numbers into BENCH_engine.json.

    Read-modify-write keyed by bench name, so each bench owns its block
    and re-runs of a single test update only that block.  Every block is
    stamped with its :func:`provenance`, so numbers from different
    commits or hosts are never mistaken for one another.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    data = {}
    if BENCH_ENGINE_JSON.exists():
        try:
            data = json.loads(BENCH_ENGINE_JSON.read_text())
        except (ValueError, OSError):
            data = {}
    data[name] = dict(metrics, provenance=provenance())
    BENCH_ENGINE_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
