"""Fabric diagnostics: per-tier utilization, hot ports, routing mix.

The operator-facing view the paper's conclusion calls for ("system
operators, administrators ... optimize, deploy, and manage"): after any
simulation, summarize where bytes flowed, which ports ran hot, how much
traffic was marked, and how often packets left minimal paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..network.fabric import Fabric
from .reporting import render_table

__all__ = ["FabricReport", "fabric_report"]


@dataclass
class FabricReport:
    """Aggregate statistics of a finished (or paused) simulation."""

    sim_time_ns: float
    packets_injected: int
    packets_delivered: int
    bytes_delivered: int
    tier_bytes: Dict[str, int]
    tier_utilization: Dict[str, float]
    hot_ports: List[tuple]  # (name, bytes, utilization)
    marks_total: int
    mean_hops: float
    nonminimal_fraction: float
    llr_replays: int

    def render(self) -> str:
        rows = [
            ["simulated time", f"{self.sim_time_ns / 1e6:.3f} ms"],
            ["packets injected", self.packets_injected],
            ["packets delivered", self.packets_delivered],
            ["bytes delivered", self.bytes_delivered],
            ["mean switch hops/packet", f"{self.mean_hops:.2f}"],
            ["non-minimal fraction", f"{self.nonminimal_fraction:.1%}"],
            ["congestion marks", self.marks_total],
            ["LLR replays", self.llr_replays],
        ]
        for tier in sorted(self.tier_bytes):
            rows.append(
                [
                    f"{tier} links",
                    f"{self.tier_bytes[tier]} B "
                    f"({self.tier_utilization[tier]:.1%} utilized)",
                ]
            )
        out = [render_table(["quantity", "value"], rows, title="Fabric report")]
        if self.hot_ports:
            out.append(
                render_table(
                    ["port", "bytes", "utilization"],
                    [
                        [name, b, f"{u:.1%}"]
                        for name, b, u in self.hot_ports
                    ],
                    title="Hottest ports",
                )
            )
        return "\n\n".join(out)


def fabric_report(fabric: Fabric, top_n: int = 5) -> FabricReport:
    """Summarize a fabric after :meth:`Simulator.run` (whole-run totals;
    per-window views are :meth:`repro.observe.FabricObserver.forensics`)."""
    t = max(fabric.sim.now, 1e-9)
    tier_bytes: Dict[str, int] = {}
    tier_capacity: Dict[str, float] = {}
    port_stats = []
    marks = 0
    replays = 0
    # one canonical walk over every port in the fabric (switch VOQs and
    # NIC injection ports alike)
    for _, port in fabric.all_ports():
        tier_bytes[port.kind] = tier_bytes.get(port.kind, 0) + port.bytes_sent
        tier_capacity[port.kind] = (
            tier_capacity.get(port.kind, 0.0) + port.bandwidth * t
        )
        replays += port.replays
        if port.kind == "inject":
            continue  # whole-run hot-port/mark views cover switch ports
        port_stats.append(
            (port.name, port.bytes_sent, port.bytes_sent / (port.bandwidth * t))
        )
        marks += port.marks_set

    delivered = fabric.packets_delivered()
    total_forwards = sum(sw.pkts_forwarded for sw in fabric.switches)
    mean_hops = total_forwards / delivered if delivered else 0.0
    # Minimal dragonfly paths touch at most 4 switches (incl. the
    # destination's); anything beyond is a misroute.
    # Estimate the non-minimal fraction from the hop surplus over an
    # assumed 3-hop average minimal path (diagnostic, not exact).
    nonmin = max(0.0, (mean_hops - 3.0)) / 3.0 if delivered else 0.0

    return FabricReport(
        sim_time_ns=fabric.sim.now,
        packets_injected=fabric.packets_injected(),
        packets_delivered=delivered,
        bytes_delivered=fabric.bytes_delivered(),
        tier_bytes=tier_bytes,
        tier_utilization={
            k: tier_bytes[k] / tier_capacity[k] if tier_capacity.get(k) else 0.0
            for k in tier_bytes
        },
        hot_ports=sorted(port_stats, key=lambda x: -x[1])[:top_n],
        marks_total=marks,
        mean_hops=mean_hops,
        nonminimal_fraction=min(1.0, nonmin),
        llr_replays=replays,
    )
