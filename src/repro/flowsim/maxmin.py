"""Max-min fair bandwidth allocation (water-filling).

The steady-state companion of the packet simulator: given flows with
fixed paths over capacitated links, compute the max-min fair rate
vector.  It is the oracle the DES is cross-validated against
(``tests/test_crossvalidation.py``) and a fast what-if tool; the
figure benches do not use it (Fig. 6's theory curves come from
:meth:`~repro.network.dragonfly.DragonflyTopology.bisection_bandwidth_bytes_ns`
and ``alltoall_bandwidth_bytes_ns``).

The classic algorithm: repeatedly find the most constrained link
(smallest remaining capacity per unsaturated weighted flow), freeze all
flows through it at the fair share, remove the link, repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

__all__ = ["Flow", "MaxMinNetwork"]


@dataclass
class Flow:
    """A flow over an explicit path of link ids.

    ``weight`` scales the flow's share on every link (a weight-2 flow
    receives twice a weight-1 flow's rate at a shared bottleneck);
    ``demand`` optionally caps the rate (a flow can be its own
    bottleneck, e.g. a NIC-limited sender).
    """

    path: Sequence[Hashable]
    weight: float = 1.0
    demand: Optional[float] = None
    name: str = ""
    rate: float = field(default=0.0, init=False)

    def __post_init__(self):
        if not self.path:
            raise ValueError("flow must traverse at least one link")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.demand is not None and self.demand < 0:
            raise ValueError("demand cannot be negative")


class MaxMinNetwork:
    """A set of capacitated links plus flows; solves for max-min rates."""

    def __init__(self):
        self.capacity: Dict[Hashable, float] = {}
        self.flows: List[Flow] = []

    def add_link(self, link_id: Hashable, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if link_id in self.capacity:
            raise ValueError(f"duplicate link {link_id!r}")
        self.capacity[link_id] = capacity

    def add_flow(self, flow: Flow) -> Flow:
        for link in flow.path:
            if link not in self.capacity:
                raise ValueError(f"flow path uses unknown link {link!r}")
        self.flows.append(flow)
        return flow

    def solve(self) -> List[float]:
        """Water-filling; returns the rate per flow (also stored on flows)."""
        remaining_cap = dict(self.capacity)
        active = {i for i in range(len(self.flows))}
        rates = [0.0] * len(self.flows)

        # Demand-capped flows are handled inside the loop: if the fair
        # share at the global bottleneck exceeds a flow's demand, the
        # flow freezes at its demand instead (and capacity is re-examined).
        link_flows: Dict[Hashable, set] = {l: set() for l in self.capacity}
        for i, f in enumerate(self.flows):
            for l in f.path:
                link_flows[l].add(i)

        while active:
            # Fair increment per unit weight at each still-loaded link.
            best_share = None
            for l, cap in remaining_cap.items():
                w = sum(self.flows[i].weight for i in link_flows[l] if i in active)
                if w == 0:
                    continue
                share = cap / w
                if best_share is None or share < best_share:
                    best_share = share
            if best_share is None:
                break  # all remaining flows traverse only unloaded links

            # A demand below the bottleneck share freezes first.
            capped = [
                i
                for i in active
                if self.flows[i].demand is not None
                and self.flows[i].demand < best_share * self.flows[i].weight
            ]
            if capped:
                for i in capped:
                    rates[i] = self.flows[i].demand
                    active.discard(i)
                    for l in self.flows[i].path:
                        remaining_cap[l] = max(0.0, remaining_cap[l] - rates[i])
                continue

            # Freeze every active flow on saturated links at the share.
            frozen = set()
            for l, cap in list(remaining_cap.items()):
                w = sum(self.flows[i].weight for i in link_flows[l] if i in active)
                if w == 0:
                    continue
                if cap / w <= best_share * (1 + 1e-12):
                    frozen |= {i for i in link_flows[l] if i in active}
            for i in frozen:
                rates[i] = best_share * self.flows[i].weight
                active.discard(i)
            for i in frozen:
                for l in self.flows[i].path:
                    remaining_cap[l] = max(0.0, remaining_cap[l] - rates[i])

        for i, f in enumerate(self.flows):
            f.rate = rates[i]
        return rates

    # -- invariant helpers (used by property tests) -------------------------

    def link_load(self, link_id: Hashable) -> float:
        return sum(f.rate for f in self.flows if link_id in set(f.path))

    def is_feasible(self, tol: float = 1e-9) -> bool:
        return all(
            self.link_load(l) <= cap + tol for l, cap in self.capacity.items()
        )

    def is_pareto_maximal(self, tol: float = 1e-9) -> bool:
        """No flow can be increased without violating a capacity."""
        for f in self.flows:
            if f.demand is not None and f.rate >= f.demand - tol:
                continue
            # Every flow must cross at least one saturated link.
            if not any(
                self.link_load(l) >= self.capacity[l] - tol for l in f.path
            ):
                return False
        return True
