"""The benchmark's workloads: four cells that simulation campaigns run.

A workload is a function of one *cell seed*: it builds the inputs from
that seed, runs the cell end to end (fabric build, injection,
``sim.run``, checks) and returns ``(packets delivered, outputs)``.  The
outputs are the simulated results that a perf change must leave alone.
A cell raises :class:`CellError` when its own checks fail; the runner
also compares the outputs of cell seed 0 against :attr:`Workload.pinned`,
and every rerun of a cell seed against its first run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.faults import FaultSchedule, chaos_run
from repro.network.units import KiB, MS, US
from repro.sim import default_watchdog
from repro.systems import crystal_mini, malbec_mini, shandy_paper
from repro.workloads import (
    allreduce_bench,
    congestion_impact,
    incast_congestor,
    split_nodes,
)


class CellError(AssertionError):
    """A cell's simulated output broke one of its checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    #: config factories whose ``build()`` is the workload's set-up
    systems: Tuple[Callable, ...]
    run: Callable[[int], Tuple[int, dict]]
    #: outputs of cell seed 0 (floats compared to 4 decimals)
    pinned: Dict[str, object]

    def matches_pinned(self, outputs: dict) -> bool:
        for key, want in self.pinned.items():
            got = outputs.get(key)
            if isinstance(want, float):
                if got is None or abs(got - want) > 5e-5:
                    return False
            elif got != want:
                return False
        return True


def _bisection(config, nbytes: int) -> Tuple[int, dict]:
    """Every node sends *nbytes* to node ``i + n/2`` (Fig. 6 pattern)."""
    fabric = config.build()
    n = fabric.topology.n_nodes
    msgs = [fabric.send(i, (i + n // 2) % n, nbytes) for i in range(n)]
    fabric.sim.run()
    fabric.assert_quiescent()
    if not all(m.complete for m in msgs):
        raise CellError("bisection: a message is incomplete")
    pkts = fabric.packets_delivered()
    return pkts, {"packets": pkts, "events": fabric.sim.events_processed}


def bisection(seed: int) -> Tuple[int, dict]:
    return _bisection(malbec_mini(seed=seed), 256 * KiB)


def paper_scale(seed: int) -> Tuple[int, dict]:
    return _bisection(shandy_paper(seed=seed), 64 * KiB)


def fig9_incast(seed: int) -> Tuple[int, dict]:
    """One Fig. 9 heatmap cell on Aries and then on Slingshot."""
    victims, aggressors = split_nodes(range(64), 32, "random", seed=seed + 3)
    out: Dict[str, object] = {}
    pkts = 0
    for label, system in (("aries", crystal_mini), ("slingshot", malbec_mini)):
        r = congestion_impact(
            system(seed=seed),
            victims,
            allreduce_bench(8, iterations=6),
            aggressors,
            incast_congestor(),
            max_ns=400 * MS,
        )
        counts = [int(r["pkts_isolated"]), int(r["pkts_congested"])]
        out[f"{label}_impact"] = r["impact"]
        out[f"{label}_pkts"] = counts
        pkts += sum(counts)
    # The paper's headline result: Slingshot's CC shields the victim
    # from an incast that ruins it on Aries.
    if not out["slingshot_impact"] < out["aries_impact"]:
        raise CellError(f"fig9_incast: Slingshot impact not below Aries: {out}")
    return pkts, out


CHAOS_MESSAGES = 2000


def chaos(seed: int) -> Tuple[int, dict]:
    """Random traffic under a generated fault storm, in the guarded loop."""

    def storm(fabric):
        return FaultSchedule.generate(
            fabric, seed=seed, n_faults=6, switch_faults=1,
            t_start=5 * US, t_end=400 * US,
        )

    with default_watchdog(wall_deadline_s=120):
        r = chaos_run(
            malbec_mini(seed=seed), storm, messages=CHAOS_MESSAGES,
            msg_bytes=16 * KiB, seed=seed, max_ns=100 * MS,
        )
    r["fabric"].assert_quiescent()
    if not r["lossless"] or r["messages_completed"] != CHAOS_MESSAGES:
        raise CellError(
            f"chaos: {r['messages_completed']}/{CHAOS_MESSAGES} messages, "
            f"lossless={r['lossless']}"
        )
    out = {
        "delivered": r["pkts_delivered"],
        "messages": [r["messages_completed"], r["messages_sent"]],
        "retransmits": r["retransmits"],
        "reroutes": r["reroutes"],
        "no_route": r["no_route"],
        "lossless": r["lossless"],
    }
    return r["pkts_delivered"], out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bisection", (malbec_mini,), bisection,
            {"packets": 5120, "events": 70600},
        ),
        Workload(
            "fig9_incast", (crystal_mini, malbec_mini), fig9_incast,
            {
                "aries_impact": 82.4896,
                "slingshot_impact": 1.0034,
                "aries_pkts": [960, 23614],
                "slingshot_pkts": [960, 7704],
            },
        ),
        Workload(
            "chaos", (malbec_mini,), chaos,
            {
                "delivered": 8000,
                "messages": [2000, 2000],
                "retransmits": 284,
                "reroutes": 519,
                "no_route": 280,
                "lossless": True,
            },
        ),
        Workload(
            "paper_scale", (shandy_paper,), paper_scale,
            {"packets": 16384, "events": 359984},
        ),
    )
}
