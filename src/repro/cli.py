"""Command-line interface: quick experiments without writing code.

Usage::

    python -m repro topology [--radix 64] [--hosts 16]
    python -m repro latency [--system malbec] [--size 8] ...
    python -m repro congestion [--victim allreduce8] [--aggressor incast] ...
    python -m repro heatmap [--system malbec] [--victims micro] [--jobs 4] ...
    python -m repro allocation [--system crystal] [--jobs 4] ...
    python -m repro qos
    python -m repro report [--system shandy]
    python -m repro trace [--system malbec] [--out trace_out] ...
    python -m repro observe [--pattern victim] [--attribution] [--weathermap map.html] ...
    python -m repro chaos [--system shandy] [--faults 3] [--curve] ...
    python -m repro validate [--lint] [--determinism] [--audit] ...

Each subcommand prints a paper-style table.  This is a convenience layer
over the same public APIs the examples use.

Two global options come *before* the subcommand:

* ``--profile [PATH]`` wraps the subcommand in cProfile, prints the
  top-20 cumulative entries (sorted by cumulative time), and dumps
  pstats to PATH (default ``repro.pstats``; inspect with
  ``python -m pstats``); ``--profile-out PATH`` sends the formatted
  table to a file instead of stdout (and implies ``--profile``), so
  campaign workers profiling in parallel don't interleave output;
* sweep subcommands take ``--jobs N`` to fan independent cells over
  forked worker processes (0 = all cores / ``REPRO_JOBS``) with
  bit-identical output.

Sweep subcommands (``heatmap``, ``allocation``, ``chaos``) always run
their cells on the supervised pool of :mod:`repro.resilient`, so a
killed worker fails its cell instead of hanging the sweep.  The
supervised-campaign flags — ``--cell-timeout`` / ``--retries`` /
``--journal`` / ``--resume`` — add the rest: hung or killed workers are
retried with deterministic backoff, exhausted cells are quarantined as
holes, and a journaled campaign resumes after a crash computing only
the missing cells.  ``observe`` and non-curve ``chaos`` accept
``--cell-timeout`` as an in-sim watchdog: a wedged run exits with stall
diagnostics.  Bad numbers (a negative count or size, an iteration count
or ``--windows`` below 1, a duration or ``--cell-timeout`` not above 0,
a fraction outside [0, 1], a ``--nodes`` too small to split into
victims and aggressors) are usage errors (exit 2), raised before any
fabric is built.
"""

from __future__ import annotations

import argparse
import math
import sys

from .analysis import format_time_ns, render_table
from .analysis.portstats import fabric_report
from .network.units import KiB, MS

_SYSTEMS = ("malbec", "shandy", "crystal")


def _get_system(name: str):
    from . import systems

    try:
        return getattr(systems, f"{name}_mini")
    except AttributeError:
        raise SystemExit(f"unknown system {name!r}; choose from {_SYSTEMS}")


def cmd_topology(args) -> int:
    from .network.dragonfly import largest_system

    if args.radix == 64 and args.hosts == 16:
        a = 32  # the paper's construction
    else:
        # balanced split of the fabric ports: a-1 local, h global
        a = max(1, (args.radix - args.hosts + 2) // 2)
    ls = largest_system(
        radix=args.radix, hosts_per_switch=args.hosts, switches_per_group=a
    )
    rows = [
        ["switches/group", ls.switches_per_group],
        ["global ports/switch", ls.global_ports_per_switch],
        ["groups", ls.n_groups],
        ["endpoints", f"{ls.n_endpoints:,}"],
        ["addressable endpoints", f"{ls.addressable_endpoints:,}"],
    ]
    print(render_table(["quantity", "value"], rows,
                       title=f"Largest dragonfly from {args.radix}-port switches"))
    return 0


def cmd_latency(args) -> int:
    from .mpi import MpiWorld

    config = _get_system(args.system)()
    n_nodes = config.params.n_nodes
    if args.ranks < 2:
        raise SystemExit(f"--ranks must be at least 2 (got {args.ranks})")
    if args.ranks > n_nodes:
        raise SystemExit(
            f"--ranks {args.ranks} exceeds the {n_nodes} nodes of the "
            f"{config.name!r} mini-system; pick --ranks <= {n_nodes}"
        )
    fabric = config.build()
    world = MpiWorld(fabric, nodes=list(range(args.ranks)))
    times = {}

    def job(rank):
        for _ in range(3):  # warm the windows
            yield from rank.allreduce(args.size)
        t0 = rank.sim.now
        for _ in range(args.iterations):
            yield from rank.allreduce(args.size)
        if rank.rank == 0:
            times["allreduce"] = (rank.sim.now - t0) / args.iterations

    world.spawn(job)
    fabric.sim.run()
    print(
        render_table(
            ["operation", "ranks", "size", "latency"],
            [[
                "MPI_Allreduce",
                args.ranks,
                f"{args.size}B",
                format_time_ns(times["allreduce"]),
            ]],
            title=f"Quiet-system latency on {config.name}",
        )
    )
    return 0


def cmd_congestion(args) -> int:
    from .workloads import (
        allreduce_bench,
        alltoall_congestor,
        congestion_impact,
        incast_congestor,
        split_nodes,
        victim_count,
    )

    config = _get_system(args.system)()
    n = config.params.n_nodes
    nodes = list(range(min(n, args.nodes)))
    victim_nodes, aggressor_nodes = split_nodes(
        nodes, victim_count(len(nodes), args.victim_fraction), args.allocation
    )
    congestor = {
        "incast": incast_congestor,
        "alltoall": alltoall_congestor,
    }[args.aggressor]()
    result = congestion_impact(
        config,
        victim_nodes,
        allreduce_bench(args.size, iterations=args.iterations),
        aggressor_nodes,
        congestor,
        max_ns=args.budget_ms * MS,
    )
    print(
        render_table(
            ["quantity", "value"],
            [
                ["system", config.name],
                ["victim", f"allreduce {args.size}B on {len(victim_nodes)} nodes"],
                ["aggressor", f"{args.aggressor} on {len(aggressor_nodes)} nodes"],
                ["allocation", args.allocation],
                ["isolated time", format_time_ns(result["ti"])],
                ["congested time", format_time_ns(result["tc"])],
                ["congestion impact C", f"{result['impact']:.2f}x"],
            ],
            title="Congestion impact (paper Eq. 1)",
        )
    )
    return 0


def _count(text: str) -> int:
    """argparse type for a count or a size: an integer >= 0."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}"
        )
    return int(text)


def _positive_count(text: str) -> int:
    """argparse type for ``--windows``, ``--nodes``, ``--ppn``,
    ``--radix``, ``--hosts`` and iteration counts: an integer >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}"
        )
    return int(text)


def _seconds(text: str) -> float:
    """argparse type for ``--cell-timeout``: a number of seconds > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds > 0, got {text!r}"
        )
    return value


def _duration(text: str) -> float:
    """argparse type for ``--budget-ms``, ``--window-us`` and
    ``--scrape-interval-us``: a finite simulated duration > 0 (an
    infinite budget would leave the clock at infinity, a zero window or
    interval divides by zero)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}"
        )
    return value


def _fraction(text: str) -> float:
    """argparse type for ``--sample-rate``, ``--victim-fraction`` and the
    ``qos`` minimum shares: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(
            f"expected a number in [0, 1], got {text!r}"
        )
    return value


def _split_error(args) -> "str | None":
    """Why ``--nodes`` cannot be split into victims and aggressors at
    some victim fraction the command runs, or None."""
    from .sweeps import aggressor_rows
    from .workloads import split_nodes, victim_count

    n = min(_get_system(args.system)().params.n_nodes, args.nodes)
    if args.command == "congestion":
        fractions = [args.victim_fraction]
    else:
        fractions = [frac for _, _, frac in aggressor_rows()]
    for frac in fractions:
        try:
            split_nodes(range(n), victim_count(n, frac), "linear")
        except ValueError as err:
            return f"--nodes {args.nodes} gives {n} nodes: {err}"
    return None


def _jobs_arg(args) -> "int | None":
    """``--jobs 0`` means "pick for me" (REPRO_JOBS env, else all cores)."""
    return None if args.jobs == 0 else args.jobs


def _add_resilience_args(p) -> None:
    """The supervised-sweep flag group shared by the sweep subcommands."""
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="crash-safe per-cell result journal (JSONL); "
                        "enables --resume")
    p.add_argument("--resume", action="store_true",
                   help="skip cells already completed in --journal and "
                        "compute only the missing ones")
    p.add_argument("--cell-timeout", type=_seconds, default=None,
                   metavar="SECONDS",
                   help="wall-clock budget per sweep cell; a wedged worker "
                        "is killed (the in-sim watchdog usually trips first "
                        "with stall diagnostics) and the cell retried")
    p.add_argument("--retries", type=_count, default=None,
                   help="retry budget per failing cell before it is "
                        "quarantined as a hole in the sweep (default 2 "
                        "when another supervision flag is set; with none, "
                        "the first failing cell aborts the sweep)")


def _resilience_arg(args):
    """Build a ResilienceConfig from the CLI flags (None = plain sweep:
    no timeout, no retry, no journal; the first failing cell aborts)."""
    if (
        args.journal is None
        and not args.resume
        and args.cell_timeout is None
        and args.retries is None
    ):
        return None
    from .resilient import ResilienceConfig, RetryPolicy

    if args.resume and args.journal is None:
        raise SystemExit("--resume requires --journal PATH")
    retries = args.retries if args.retries is not None else 2
    return ResilienceConfig(
        cell_timeout_s=args.cell_timeout,
        retry=RetryPolicy(retries=retries),
        journal=args.journal,
        resume=args.resume,
    )


def _print_harness_summary() -> None:
    """Print nonzero campaign-harness counters (retries, quarantines, ...)."""
    from .resilient import harness_summary_rows

    rows = harness_summary_rows()
    if rows:
        print()
        print(render_table(["harness counter", "value"], rows,
                           title="Campaign supervision"))


def _quarantine_report(failures) -> None:
    for f in failures:
        print(f"QUARANTINED: {f.render()}", file=sys.stderr)


def cmd_heatmap(args) -> int:
    from .analysis import render_heatmap
    from .resilient import CellFailure
    from .sweeps import app_victims, micro_victims, run_heatmap

    config = _get_system(args.system)()
    n = config.params.n_nodes
    nodes = list(range(min(n, args.nodes)))
    victims = {
        "micro": micro_victims,
        "apps": app_victims,
        "all": lambda: {**app_victims(), **micro_victims()},
    }[args.victims]()
    rows, cols, values = run_heatmap(
        config,
        victims,
        nodes,
        policy=args.allocation,
        ppn=args.ppn,
        seed=args.seed,
        max_ns=args.budget_ms * MS,
        jobs=_jobs_arg(args),
        resilience=_resilience_arg(args),
    )
    # quarantined cells render as NaN holes; the sweep still completes
    failures = [v for row in values for v in row if isinstance(v, CellFailure)]
    if failures:
        values = [
            [math.nan if isinstance(v, CellFailure) else v for v in row]
            for row in values
        ]
    print(
        render_heatmap(
            rows,
            cols,
            values,
            title=(
                f"Congestion-impact heatmap — {config.name}, "
                f"{len(nodes)} nodes, {args.allocation} allocation"
            ),
        )
    )
    _quarantine_report(failures)
    _print_harness_summary()
    return 1 if failures else 0


def cmd_allocation(args) -> int:
    import numpy as np

    from .resilient import CellFailure
    from .sweeps import micro_victims, run_heatmap

    config = _get_system(args.system)()
    n = config.params.n_nodes
    nodes = list(range(min(n, args.nodes)))
    panel = {
        k: v
        for k, v in micro_victims().items()
        if k in ("allreduce-8B", "alltoall-128K", "pingpong-8B")
    }
    resilience = _resilience_arg(args)
    n_failures = 0
    out_rows = []
    for policy in ("linear", "interleaved", "random"):
        _, _, values = run_heatmap(
            config,
            panel,
            nodes,
            policy=policy,
            ppn=args.ppn,
            seed=args.seed,
            max_ns=args.budget_ms * MS,
            jobs=_jobs_arg(args),
            resilience=resilience,
        )
        flat = [v for row in values for v in row]
        failures = [v for v in flat if isinstance(v, CellFailure)]
        n_failures += len(failures)
        if failures:
            _quarantine_report(failures)
        arr = np.array([v for v in flat if not isinstance(v, CellFailure)])
        if arr.size:
            stats = [np.median(arr), np.percentile(arr, 90), arr.max()]
            out_rows.append([policy] + [f"{x:.2f}" for x in stats])
        else:  # every cell of this policy was quarantined
            out_rows.append([policy, "-", "-", "-"])
    print(
        render_table(
            ["allocation", "median C", "p90 C", "max C"],
            out_rows,
            title=(
                f"Impact distribution by allocation — {config.name}, "
                f"{len(nodes)} nodes, {args.ppn} PPN aggressor"
            ),
        )
    )
    _print_harness_summary()
    return 1 if n_failures else 0


def cmd_qos(args) -> int:
    from .core.traffic_classes import TrafficClass
    from .flowsim import FluidBottleneck, FluidJob

    classes = [
        TrafficClass("tc1", min_share=args.min1),
        TrafficClass("tc2", min_share=args.min2),
    ]
    bn = FluidBottleneck(100.0, classes)
    j1 = bn.add_job(FluidJob(start_ns=0.0, nbytes=2000.0, tc=0, name="job1"))
    j2 = bn.add_job(FluidJob(start_ns=5.0, nbytes=1000.0, tc=1, name="job2"))
    bn.run()
    rows = [
        [f"t={t:g}", f"{j1.rate_at(t):.1f}", f"{j2.rate_at(t):.1f}"]
        for t in (2.0, 6.0, 25.0)
    ]
    print(
        render_table(
            ["time", "job1 rate", "job2 rate"],
            rows,
            title=f"Fluid QoS timeline (guarantees {args.min1:.0%}/{args.min2:.0%}, capacity 100)",
        )
    )
    return 0


def cmd_report(args) -> int:
    import random

    from .sim.rng import stable_hash

    config = _get_system(args.system)()
    fabric = config.build()
    rng = random.Random(stable_hash("cli-report", args.seed))
    n = fabric.topology.n_nodes
    for _ in range(args.messages):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            fabric.send(a, b, rng.choice([8, 4 * KiB, 64 * KiB]))
    fabric.sim.run()
    print(fabric_report(fabric).render())
    return 0


def cmd_trace(args) -> int:
    import random

    from .sim.rng import stable_hash
    from .telemetry import FabricTelemetry

    config = _get_system(args.system)()
    fabric = config.build()
    telem = FabricTelemetry(
        fabric,
        sample_rate=args.sample_rate,
        scrape_interval_ns=args.scrape_interval_us * 1000.0,
        seed=args.seed,
    )
    rng = random.Random(stable_hash("cli-trace", args.seed))
    n = fabric.topology.n_nodes
    if args.pattern == "incast":
        # Everyone hammers node 0: generates deep last-hop VOQs, ECN
        # marks, and CC window cuts — the interesting trace to look at.
        for src in range(1, min(n, args.messages + 1)):
            fabric.send(src, 0, 64 * KiB)
        sent = min(n - 1, args.messages)
        while sent < args.messages:
            fabric.send(1 + sent % (n - 1), 0, 64 * KiB)
            sent += 1
    else:
        sent = 0
        while sent < args.messages:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                fabric.send(a, b, rng.choice([8, 4 * KiB, 64 * KiB]))
                sent += 1
    fabric.sim.run()
    paths = telem.export(args.out)
    sim = fabric.sim
    rows = [
        ["system", config.name],
        ["pattern", args.pattern],
        ["messages", args.messages],
        ["simulated time", format_time_ns(sim.now)],
        ["events processed", sim.events_processed],
        ["events/s (wall)", f"{sim.events_per_wall_second:,.0f}"],
        ["span events", len(telem.spans)],
        ["span layers", ", ".join(telem.spans.layers())],
        ["metrics", len(telem.registry)],
        ["scrape snapshots", len(telem.scraper)],
    ]
    for kind, path in paths.items():
        rows.append([kind, path])
    print(render_table(["quantity", "value"], rows, title="Telemetry capture"))
    return 0


def cmd_observe(args) -> int:
    from .observe import STAGES  # noqa: F401 (import check before building)

    config = _get_system(args.system)()
    fabric = config.build()
    obs = fabric.attach_observer(
        window_ns=args.window_us * 1000.0,
        max_windows=args.windows,
        sample_rate=args.sample_rate,
    )
    n = fabric.topology.n_nodes
    victims = set()
    if args.pattern == "bisection":
        # the validator's scenario: every node sends across the bisection
        for i in range(n):
            fabric.send(i, (i + n // 2) % n, args.size)
    elif args.pattern == "incast":
        for i in range(args.messages):
            fabric.send(1 + i % (n - 1), 0, args.size)
    else:  # victim: one cross-group flow sharing its last-hop switch
        # with an incast — the paper's victim-vs-aggressor story
        tgt = 0
        sw = fabric.topology.node_switch(tgt)
        victim_dst = next(
            m for m in fabric.topology.nodes_on_switch(sw) if m != tgt
        )
        victim_src = n - 1  # last node lives in the last group
        victims = {(victim_src, victim_dst)}
        for i in range(args.messages):
            src = 1 + i % (n - 2)  # keep the victim endpoints clean
            if src not in (victim_dst, victim_src):
                fabric.send(src, tgt, args.size)
        for _ in range(4):
            fabric.send(victim_src, victim_dst, 16 * KiB)
    if args.cell_timeout is not None:
        from .sim import SimStall

        fabric.sim.watchdog(wall_deadline_s=args.cell_timeout)
        try:
            fabric.sim.run()
        except SimStall as stall:
            print(f"STALLED: {stall}", file=sys.stderr)
            return 1
    else:
        fabric.sim.run()
    obs.stop()

    sim = fabric.sim
    rows = [
        ["system", config.name],
        ["pattern", args.pattern],
        ["simulated time", format_time_ns(sim.now)],
        ["packets delivered", fabric.packets_delivered()],
        ["span events", len(obs.spans)],
        ["windows", f"{len(obs.windows)} x {format_time_ns(args.window_us * 1000.0)}"],
        ["metrics windowed", len(obs.registry)],
    ]
    print(render_table(["quantity", "value"], rows,
                       title="Observability capture"))
    print()
    print(obs.forensics(top_k=args.top_k).render())
    if args.attribution:
        print()
        print(obs.attribution().render())
    if victims:
        print()
        print(obs.victim_report(victims, top_k=args.top_k).render())
    if args.weathermap:
        path = obs.weathermap(args.weathermap)
        print(f"\nweather map written to {path}")
    return 0


def cmd_chaos(args) -> int:
    from .faults import FaultSchedule, chaos_run, degradation_curve, link_fail
    from .resilient import CellFailure

    config = _get_system(args.system)()
    resilience = _resilience_arg(args)

    if args.curve:
        rows = degradation_curve(
            config, max_ns=args.budget_ms * MS, jobs=_jobs_arg(args),
            resilience=resilience,
        )
        failures = [r for r in rows if isinstance(r, CellFailure)]
        print(
            render_table(
                ["failed links", "live links", "completed", "goodput",
                 "vs healthy"],
                [
                    [f"(cell {r.index})", "-", "QUARANTINED", r.kind, "-"]
                    if isinstance(r, CellFailure)
                    else [
                        r["k_failed"],
                        r["links_live"],
                        f"{r['messages_completed']}/{r['messages_sent']}",
                        f"{r['goodput_gbps']:.1f} Gb/s",
                        f"{r['relative']:.0%}",
                    ]
                    for r in rows
                ],
                title=(
                    f"Cross-group bandwidth vs failed global links "
                    f"({config.name}, groups 0<->1)"
                ),
            )
        )
        _quarantine_report(failures)
        _print_harness_summary()
        if failures:
            return 1
        if args.require_lossless and any(
            r["messages_completed"] != r["messages_sent"] for r in rows
        ):
            print("FAIL: traffic was lost on the degraded fabric",
                  file=sys.stderr)
            return 1
        return 0

    if args.fail_global > 0:
        L = config.params.links_per_pair
        if args.fail_global >= L:
            raise SystemExit(
                f"--fail-global {args.fail_global} would sever groups 0 and 1 "
                f"entirely (links_per_pair={L}); use {L - 1} at most"
            )
        schedule = FaultSchedule(
            [link_fail(0.0, ("global", 0, 1, i)) for i in range(args.fail_global)]
        )
    else:
        # overlap the fault window with the traffic (injected over the
        # first ~200us), not the whole simulated-time budget
        schedule = lambda fabric: FaultSchedule.generate(  # noqa: E731
            fabric,
            seed=args.seed,
            n_faults=args.faults,
            t_start=5_000.0,
            t_end=min(400_000.0, 0.5 * args.budget_ms * MS),
            switch_faults=args.switch_faults,
        )

    from .sim import SimStall, default_watchdog

    try:
        with default_watchdog(wall_deadline_s=args.cell_timeout):
            result = chaos_run(
                config,
                schedule,
                messages=args.messages,
                seed=args.seed,
                max_ns=args.budget_ms * MS,
            )
    except SimStall as stall:
        print(f"STALLED: {stall}", file=sys.stderr)
        return 1
    rows = [
        ["system", config.name],
        ["messages", f"{result['messages_completed']}/{result['messages_sent']} completed"],
        ["packets", f"{result['pkts_delivered']}/{result['pkts_injected']} delivered"],
        ["dropped by faults", result["pkts_dropped"]],
        ["e2e retransmits", result["retransmits"]],
        ["duplicate deliveries", result["dup_pkts"]],
        ["give-ups", result["giveups"]],
        ["fault reroutes", result["reroutes"]],
        ["no-route drops", result["no_route"]],
        ["fault events applied", result["faults_applied"]],
        ["links down at end", len(result["links_down_end"])],
        ["makespan", format_time_ns(result["makespan_ns"])],
        ["goodput", f"{result['goodput_gbps']:.1f} Gb/s"],
        ["lossless", "yes" if result["lossless"] else "NO"],
    ]
    print(render_table(["quantity", "value"], rows,
                       title="Chaos run (fault injection + e2e recovery)"))
    if args.require_lossless and not result["lossless"]:
        print("FAIL: traffic was lost despite end-to-end recovery",
              file=sys.stderr)
        return 1
    return 0


def cmd_validate(args) -> int:
    import os

    from .validate import bisection_scenario, determinism_diff, lint_paths

    # no selector flags -> run every pass
    run_all = not (args.lint or args.determinism or args.audit)
    failures = 0

    if args.lint or run_all:
        paths = args.paths or [os.path.join(os.path.dirname(__file__))]
        issues = lint_paths(paths)
        for issue in issues:
            print(issue.render())
        label = ", ".join(paths)
        if issues:
            print(f"lint: {len(issues)} issue(s) in {label}")
            failures += 1
        else:
            print(f"lint: clean ({label})")

    if args.determinism or run_all:
        report = determinism_diff(
            bisection_scenario(args.system, nbytes=4 * KiB, seed=args.seed)
        )
        print(f"determinism: {report.render()}")
        if not report.identical:
            failures += 1

    if args.audit or run_all:
        fabric = bisection_scenario(args.system, seed=args.seed)()
        auditor = fabric.attach_auditor()
        fabric.sim.run()
        violations = auditor.final_check()
        if violations:
            for v in violations:
                print(v.render())
            print(f"audit: {len(violations)} violation(s)")
            failures += 1
        else:
            print(
                f"audit: clean ({args.system} bisection, "
                f"{fabric.packets_delivered()} pkts, {auditor.sweeps} sweeps)"
            )

    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Slingshot-interconnect reproduction toolkit"
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="repro.pstats",
        default=None,
        metavar="PATH",
        help="profile the subcommand with cProfile: print the top-20 "
             "cumulative entries and dump pstats to PATH "
             "(default repro.pstats; place before the subcommand)",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="write the formatted profile table to PATH instead of stdout "
             "(implies --profile; campaign workers use this so parallel "
             "profiles don't interleave on one terminal)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="dragonfly design math (Fig. 3)")
    p.add_argument("--radix", type=_positive_count, default=64)
    p.add_argument("--hosts", type=_positive_count, default=16)
    p.set_defaults(fn=cmd_topology)

    p = sub.add_parser("latency", help="quiet-system collective latency")
    p.add_argument("--system", choices=_SYSTEMS, default="malbec")
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--size", type=_count, default=8)
    p.add_argument("--iterations", type=_positive_count, default=10)
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("congestion", help="victim vs aggressor impact (Fig. 9)")
    p.add_argument("--system", choices=_SYSTEMS, default="crystal")
    p.add_argument("--aggressor", choices=("incast", "alltoall"), default="incast")
    p.add_argument("--allocation", choices=("linear", "interleaved", "random"), default="random")
    p.add_argument("--victim-fraction", type=_fraction, default=0.5)
    p.add_argument("--nodes", type=_positive_count, default=64)
    p.add_argument("--size", type=_count, default=8)
    p.add_argument("--iterations", type=_positive_count, default=8)
    p.add_argument("--budget-ms", type=_duration, default=400.0)
    p.set_defaults(fn=cmd_congestion)

    p = sub.add_parser(
        "heatmap", help="full victim-vs-aggressor impact grid (Fig. 9)"
    )
    p.add_argument("--system", choices=_SYSTEMS, default="malbec")
    p.add_argument("--victims", choices=("micro", "apps", "all"), default="micro")
    p.add_argument("--allocation", choices=("linear", "interleaved", "random"),
                   default="linear")
    p.add_argument("--nodes", type=_positive_count, default=64)
    p.add_argument("--ppn", type=_positive_count, default=1)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--budget-ms", type=_duration, default=400.0)
    p.add_argument("--jobs", type=_count, default=0,
                   help="worker processes for the grid cells "
                        "(0 = all cores / REPRO_JOBS)")
    _add_resilience_args(p)
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser(
        "allocation", help="impact distribution by allocation policy (Fig. 10)"
    )
    p.add_argument("--system", choices=_SYSTEMS, default="crystal")
    p.add_argument("--nodes", type=_positive_count, default=64)
    p.add_argument("--ppn", type=_positive_count, default=1)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--budget-ms", type=_duration, default=400.0)
    p.add_argument("--jobs", type=_count, default=0,
                   help="worker processes for the grid cells "
                        "(0 = all cores / REPRO_JOBS)")
    _add_resilience_args(p)
    p.set_defaults(fn=cmd_allocation)

    p = sub.add_parser("qos", help="traffic-class bandwidth timeline (Fig. 14)")
    p.add_argument("--min1", type=_fraction, default=0.8)
    p.add_argument("--min2", type=_fraction, default=0.1)
    p.set_defaults(fn=cmd_qos)

    p = sub.add_parser("report", help="fabric utilization diagnostics")
    p.add_argument("--system", choices=_SYSTEMS, default="shandy")
    p.add_argument("--messages", type=_count, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "trace",
        help="run a workload with full telemetry; export Chrome trace + JSONL",
    )
    p.add_argument("--system", choices=_SYSTEMS, default="malbec")
    p.add_argument("--pattern", choices=("random", "incast"), default="incast")
    p.add_argument("--messages", type=_count, default=200)
    p.add_argument("--sample-rate", type=_fraction, default=1.0,
                   help="fraction of packets given lifecycle spans")
    p.add_argument("--scrape-interval-us", type=_duration, default=10.0,
                   help="counter snapshot cadence in simulated microseconds")
    p.add_argument("--out", default="trace_out",
                   help="output directory for trace artifacts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "observe",
        help="windowed observability: congestion forensics, latency "
             "attribution, fabric weather map",
    )
    p.add_argument("--system", choices=_SYSTEMS, default="malbec")
    p.add_argument("--pattern", choices=("bisection", "incast", "victim"),
                   default="bisection")
    p.add_argument("--messages", type=_count, default=120,
                   help="aggressor messages for incast/victim patterns")
    p.add_argument("--size", type=_count, default=64 * KiB)
    p.add_argument("--window-us", type=_duration, default=10.0,
                   help="time-series window width in simulated microseconds")
    p.add_argument("--windows", type=_positive_count, default=64,
                   help="window ring capacity (older windows fall off)")
    p.add_argument("--attribution", action="store_true",
                   help="print the per-stage latency attribution report")
    p.add_argument("--weathermap", metavar="OUT.html", default=None,
                   help="write the fabric weather map to this HTML file")
    p.add_argument("--top-k", type=_count, default=5,
                   help="hot links / shared ports to show per report")
    p.add_argument("--sample-rate", type=_fraction, default=1.0,
                   help="fraction of packets given lifecycle spans")
    p.add_argument("--cell-timeout", type=_seconds, default=None,
                   metavar="SECONDS",
                   help="wall-clock watchdog for the run: a wedged "
                        "simulation exits with stall diagnostics instead "
                        "of hanging")
    p.set_defaults(fn=cmd_observe)

    p = sub.add_parser(
        "chaos",
        help="fault injection: degraded-fabric run with e2e recovery (§II-F)",
    )
    p.add_argument("--system", choices=_SYSTEMS, default="shandy")
    p.add_argument("--messages", type=_count, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", type=_count, default=3,
                   help="random link faults drawn from the seeded schedule")
    p.add_argument("--switch-faults", type=_count, default=0,
                   help="whole-switch fail/recover pairs to add")
    p.add_argument("--fail-global", type=_count, default=0,
                   help="instead: fail K parallel global links between "
                        "groups 0 and 1 for the whole run")
    p.add_argument("--curve", action="store_true",
                   help="sweep the bandwidth-vs-failed-global-links curve")
    p.add_argument("--budget-ms", type=_duration, default=60.0,
                   help="simulated-time budget")
    p.add_argument("--require-lossless", action="store_true",
                   help="exit nonzero if any traffic failed to complete")
    p.add_argument("--jobs", type=_count, default=0,
                   help="worker processes for the --curve k-points "
                        "(0 = all cores / REPRO_JOBS)")
    _add_resilience_args(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "validate",
        help="correctness checks: source lint, determinism diff, "
             "invariant-audited run",
    )
    p.add_argument("--lint", action="store_true",
                   help="run only the AST lint pass")
    p.add_argument("--determinism", action="store_true",
                   help="run only the dual-run determinism diff")
    p.add_argument("--audit", action="store_true",
                   help="run only the invariant-audited bisection run")
    p.add_argument("--system", choices=_SYSTEMS, default="malbec",
                   help="mini-system for the determinism/audit scenarios")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: the installed "
                        "repro package)")
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "nodes" in args:  # the victim/aggressor commands
        problem = _split_error(args)
        if problem:
            parser.error(problem)
    if args.profile is None and args.profile_out is None:
        return args.fn(args)

    import cProfile
    import pstats

    prof = cProfile.Profile()
    rc = prof.runcall(args.fn, args)
    dump_path = args.profile if args.profile is not None else "repro.pstats"
    prof.dump_stats(dump_path)
    if args.profile_out is not None:
        with open(args.profile_out, "w") as fh:
            stats = pstats.Stats(prof, stream=fh)
            stats.sort_stats("cumulative").print_stats(20)
        print(
            f"profile table written to {args.profile_out}; "
            f"pstats dumped to {dump_path}"
        )
    else:
        stats = pstats.Stats(prof, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(20)
        print(f"profile dumped to {dump_path} (inspect with python -m pstats)")
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
