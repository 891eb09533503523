"""Victim/aggressor node allocation policies (paper Fig. 7).

The paper studies three placements of two jobs on the machine:

* **linear** — the first *n* nodes go to the victim, the rest to the
  aggressor (compact allocations, few shared switches);
* **interleaved** — nodes alternate between the two jobs in proportion
  to their sizes (every switch shared);
* **random** — a seeded shuffle (the general scheduler case, and the
  placement the paper finds generates the most congestion).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..sim.rng import stable_hash

__all__ = ["split_nodes", "victim_count", "ALLOCATION_POLICIES"]

ALLOCATION_POLICIES = ("linear", "interleaved", "random")


def victim_count(n_nodes: int, fraction: float) -> int:
    """Victim nodes for *fraction* of *n_nodes*: at least two, so the
    victim's collectives always have a partner."""
    return max(2, round(n_nodes * fraction))


def split_nodes(
    nodes: Sequence[int],
    n_victim: int,
    policy: str,
    seed: int = 0,
) -> Tuple[List[int], List[int]]:
    """Split *nodes* into (victim, aggressor) per the placement policy."""
    nodes = list(nodes)
    if not (0 < n_victim < len(nodes)):
        raise ValueError(
            f"victim needs between 1 and {len(nodes) - 1} nodes, got {n_victim}"
        )
    if policy == "linear":
        return nodes[:n_victim], nodes[n_victim:]
    if policy == "interleaved":
        # Proportional round-robin: walk the node list once, handing each
        # node to whichever job is furthest behind its quota.
        n_total = len(nodes)
        victim: List[int] = []
        aggressor: List[int] = []
        for i, node in enumerate(nodes):
            # victim quota after i+1 nodes (integer floor keeps a 50/50
            # split strictly alternating; round() would banker-round):
            want_victim = ((i + 1) * n_victim) // n_total
            if len(victim) < want_victim:
                victim.append(node)
            else:
                aggressor.append(node)
        return victim, aggressor
    if policy == "random":
        rng = random.Random(stable_hash("allocation-split", seed))
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        return sorted(shuffled[:n_victim]), sorted(shuffled[n_victim:])
    raise ValueError(f"unknown allocation policy {policy!r}; choose from {ALLOCATION_POLICIES}")
