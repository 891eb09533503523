"""End-to-end benchmark of the simulator on the cells campaigns run.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload fig9_incast --seed 0 --seconds 20
    python3 benchmarks/perf/run.py --workload chaos --trace 1
    python3 benchmarks/perf/run.py                      # every workload in turn

Each workload is a closed loop in one process (no threads, no pool):
back-to-back checked cells, the next one starting when the previous one
ends, as in a campaign worker.  A run first times the workload's fabric
build, then runs one untimed warm-up cell, then runs cells until
``--seconds`` have passed.  Timings are rescaled to a reference host
speed (see ``hostspeed.py``); the raw wall-clock rate is printed beside
them.  ``--trace 1`` instead alternates untraced and traced cells and
reports the per-layer split (see ``layers.py``).  Without ``--workload``
every workload runs in a fresh process of its own.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``--out PATH`` appends the run's full record (spreads and provenance) to
PATH as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from itertools import cycle
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: distinct cell seeds a run cycles through: run seed S uses cells
#: S*K .. S*K+K-1, so seed 0 starts with the pinned cell and every run
#: averages over several inputs instead of riding on one
CELLS_PER_RUN = 4
#: fabric builds per run; setup_s is their median
SETUP_REPS = 15
#: a timing's tail is reported at the highest percentile that still has
#: this many samples beyond it
TAIL_SAMPLES = 10

END_TO_END = {"pkt_per_s": "pkt/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'repro'} not found: run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not {src}")
    sys.path.insert(0, str(HERE))


def _percentile(values, q) -> float:
    return float(np.percentile(values, q))


def spread(values, higher_is_better: bool) -> dict:
    """Median, quartiles, n, and the worst-side tail percentile."""
    n = len(values)
    out = {
        "n": n,
        "median": _percentile(values, 50),
        "p25": _percentile(values, 25),
        "p75": _percentile(values, 75),
    }
    q = int(100 * (n - TAIL_SAMPLES) / n) if n > TAIL_SAMPLES else 0
    if q >= 50:
        q_bad = 100 - q if higher_is_better else q
        out["tail"] = {"q": q_bad, "value": _percentile(values, q_bad)}
    return out


class Runner:
    """Runs checked cells of one workload and keeps the tallies."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.cell_seeds = [seed * CELLS_PER_RUN + i for i in range(CELLS_PER_RUN)]
        self.attempted = 0
        self.failed = 0
        #: cell seed -> outputs of its first run (every rerun must match)
        self._first = {}

    def cell(self, cell_seed: int, ctx=None):
        """One cell, timed and checked inside *ctx* (a tracer or a host
        speed probe); (wall_s, packets) or None if it failed."""
        self.attempted += 1
        gc.collect()  # the previous cell's garbage is not this cell's cost
        try:
            with ctx or contextlib.nullcontext():
                t0 = time.perf_counter()
                pkts, outputs = self.workload.run(cell_seed)
                wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return self._fail(cell_seed, "raised")
        if cell_seed == 0 and not self.workload.matches_pinned(outputs):
            return self._fail(cell_seed, f"outputs {outputs} != pinned {self.workload.pinned}")
        first = self._first.setdefault(cell_seed, outputs)
        if outputs != first:
            return self._fail(cell_seed, f"outputs {outputs} != first run {first}")
        return wall, pkts

    def _fail(self, cell_seed: int, why: str):
        self.failed += 1
        print(f"FAILED {self.workload.name} cell {cell_seed}: {why}", file=sys.stderr)
        return None

    def setup_seconds(self, seed: int, speed) -> list:
        """Reference seconds to build the workload's fabric(s), SETUP_REPS times."""
        samples = []
        for _ in range(SETUP_REPS):
            total = 0.0
            for system in self.workload.systems:
                config = system(seed=seed)
                gc.collect()
                with speed.sampling():
                    t0 = time.perf_counter()
                    config.build()
                    wall = time.perf_counter() - t0
                total += wall / speed.slowdown()
            samples.append(total)
        gc.collect()
        return samples


def measure(runner: Runner, seed: int, seconds: float):
    """End-to-end metrics: pkt/s per cell, set-up time, peak RSS."""
    from hostspeed import HostSpeed

    speed = HostSpeed()
    setup = runner.setup_seconds(seed, speed)
    cells = cycle(runner.cell_seeds)
    runner.cell(runner.cell_seeds[0])  # warm-up
    rates, wall_rates, slowdowns = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        res = runner.cell(next(cells), speed.sampling())
        if res is not None:
            wall, pkts = res
            slowdowns.append(speed.slowdown())
            wall_rates.append(pkts / wall)
            rates.append(pkts / wall * slowdowns[-1])
        if time.perf_counter() >= deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "pkt_per_s": _percentile(rates, 50) if rates else 0.0,
        "setup_s": _percentile(setup, 50),
        "peak_rss_mb": rss_mb,
    }
    spreads = {"setup_s": spread(setup, higher_is_better=False)}
    notes = []
    if rates:
        spreads["pkt_per_s"] = spread(rates, higher_is_better=True)
        spreads["wall_pkt_per_s"] = spread(wall_rates, higher_is_better=True)
        spreads["host_slowdown"] = spread(slowdowns, higher_is_better=False)
        notes.append(
            f"  wall-clock pkt/s median {spreads['wall_pkt_per_s']['median']:.6g}, "
            f"host slowdown median {spreads['host_slowdown']['median']:.3g}"
        )
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, spreads, notes


def measure_traced(runner: Runner, seconds: float):
    """Per-layer metrics: alternate untraced and traced runs of each cell."""
    from layers import LayerTracer, metric_unit, per_layer_metric_names

    tracer = LayerTracer()
    cells = cycle(runner.cell_seeds)
    runner.cell(runner.cell_seeds[0])  # warm-up
    overheads = []
    deadline = time.perf_counter() + seconds
    while True:
        cell_seed = next(cells)
        plain = runner.cell(cell_seed)
        traced = runner.cell(cell_seed, tracer.installed())
        if plain is not None and traced is not None:
            overheads.append(traced[0] / plain[0])
        if time.perf_counter() >= deadline:
            break
    names = per_layer_metric_names()
    notes = []
    if runner.failed:
        values = dict.fromkeys(names, 0.0)
    else:
        values = tracer.metrics(overhead=_percentile(overheads, 50))
        split = sorted(tracer.shares().items(), key=lambda kv: -kv[1])
        notes.append("  self-time split: " + ", ".join(f"{k} {v:.1%}" for k, v in split))
    spreads = {"trace.overhead": spread(overheads, higher_is_better=False)} if overheads else {}
    metrics = {k: {"value": values[k], "unit": metric_unit(k)} for k in names}
    return metrics, spreads, notes


def provenance() -> dict:
    """Where a record came from: commit, interpreter, host, time."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=40"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "commit": commit,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _describe(name: str, m: dict, s: dict) -> str:
    line = f"  {name:<26} {m['value']:>14.6g} {m['unit']}"
    if s:
        line += f"   median of n={s['n']} [p25 {s['p25']:.6g}, p75 {s['p75']:.6g}]"
        if "tail" in s:
            line += f", p{s['tail']['q']} {s['tail']['value']:.6g}"
    return line


def run_one(args) -> dict:
    _use_checkout_source()
    from cells import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    runner = Runner(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, spreads, notes = measure_traced(runner, args.seconds)
    else:
        metrics, spreads, notes = measure(runner, args.seed, args.seconds)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(
        f"{args.workload}: seed {args.seed}, cells {runner.cell_seeds}, "
        f"{'traced' if args.trace else 'untraced'}, "
        f"{runner.failed}/{runner.attempted} cells failed "
        f"(error_rate {runner.failed / runner.attempted:.3g})"
    )
    for name, m in metrics.items():
        print(_describe(name, m, spreads.get(name)))
    for note in notes:
        print(note)
    if args.out:
        record = dict(
            result, workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, spreads=spreads, provenance=provenance(),
        )
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return result


def run_all(args) -> dict:
    """Every workload in a fresh process of its own, one after another."""
    _use_checkout_source()
    from cells import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=0, help="input seed (default 0, the pinned one)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="timed phase length; at least one cell always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                    help="1 (or bare --trace): per-layer trace run instead of "
                    "end-to-end metrics")
    ap.add_argument("--out", help="append the run's record to this JSON-lines file")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    result = run_one(args) if args.workload else run_all(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
