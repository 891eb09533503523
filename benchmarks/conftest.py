"""Shared infrastructure for the figure-reproduction benchmarks.

Every module regenerates one table/figure of the paper: it runs the
experiment once inside ``benchmark.pedantic`` (so ``pytest benchmarks/
--benchmark-only`` times it), asserts the paper's *shape* claims, prints
the paper-style table, and writes it to ``benchmarks/results/``.

Scale: the default configs are the ``*_mini`` systems (same group
structure as the paper's machines, fewer nodes).  Set ``REPRO_SCALE=paper``
to run the full-size systems (slow: hours in pure Python).
"""

from __future__ import annotations

import os
import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"


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
    """Collects figure output and prints it after the test (saving to
    ``results/`` is :func:`save_result`'s job)."""
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


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
