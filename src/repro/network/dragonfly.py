"""Dragonfly topology builder and design math.

Implements the 1-dimensional Dragonfly used by Slingshot (paper §II-B,
Fig. 3): ``p`` hosts per switch, ``a`` switches per group connected
all-to-all by local links, and ``g`` groups connected all-to-all by
global links, with a configurable number of parallel global links per
group pair.  Global link endpoints are spread round-robin across the
switches of each group so every switch acts as a gateway for an even
share of peer groups.

Also provides the paper's design arithmetic for the largest system a
64-port switch can build (545 groups / 279 040 endpoints, limited to
511 groups / 261 632 endpoints by the addressing scheme).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .units import ROSETTA_RADIX

__all__ = ["DragonflyParams", "DragonflyTopology", "largest_system", "LargestSystem"]


@dataclass(frozen=True)
class DragonflyParams:
    """Structural parameters of a 1-D dragonfly.

    ``links_per_pair`` is the number of parallel global links between any
    two groups (the paper's systems use 48 on Malbec and 56 on Shandy).
    """

    hosts_per_switch: int  # p
    switches_per_group: int  # a
    n_groups: int  # g
    links_per_pair: int = 1

    def __post_init__(self):
        if self.hosts_per_switch < 1:
            raise ValueError("hosts_per_switch must be >= 1")
        if self.switches_per_group < 1:
            raise ValueError("switches_per_group must be >= 1")
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        if self.n_groups > 1 and self.links_per_pair < 1:
            raise ValueError("links_per_pair must be >= 1 for multi-group systems")

    @classmethod
    def from_global_ports(
        cls, hosts_per_switch: int, switches_per_group: int, global_ports_per_switch: int
    ) -> "DragonflyParams":
        """Balanced dragonfly: g = a*h + 1 groups, one link per pair slot.

        This is the paper's "largest system" construction (a=32, p=16,
        h=17 gives 545 groups).
        """
        a, h = switches_per_group, global_ports_per_switch
        g = a * h + 1
        total_global_ports = a * h
        links_per_pair = total_global_ports // (g - 1)  # == 1 by construction
        return cls(hosts_per_switch, switches_per_group, g, links_per_pair)

    @property
    def n_switches(self) -> int:
        return self.switches_per_group * self.n_groups

    @property
    def n_nodes(self) -> int:
        return self.hosts_per_switch * self.n_switches

    @property
    def nodes_per_group(self) -> int:
        return self.hosts_per_switch * self.switches_per_group

    @property
    def global_ports_per_group(self) -> int:
        return self.links_per_pair * (self.n_groups - 1)

    def max_ports_per_switch(self) -> int:
        """Worst-case port usage of any switch (hosts + local + global)."""
        a = self.switches_per_group
        global_ports = -(-self.global_ports_per_group // a)  # ceil
        return self.hosts_per_switch + (a - 1) + (global_ports if self.n_groups > 1 else 0)

    def validate_radix(self, radix: int = ROSETTA_RADIX) -> None:
        used = self.max_ports_per_switch()
        if used > radix:
            raise ValueError(
                f"topology needs up to {used} ports per switch, radix is {radix}"
            )


class DragonflyTopology:
    """Concrete wiring of a dragonfly: switch ids, link lists, gateways.

    The wiring is immutable.  Whether a link is up is recorded once, on
    the built fabric's ports (``OutputPort.up``); the topology only
    carries the ``health_epoch`` that fault control bumps.

    Identifiers:

    * switches are ``0 .. a*g-1``, with switch ``s`` in group ``s // a``;
    * nodes are ``0 .. p*a*g-1``, with node ``n`` attached to switch
      ``n // p``.
    """

    def __init__(self, params: DragonflyParams):
        self.params = params
        p, a, g = params.hosts_per_switch, params.switches_per_group, params.n_groups
        self.n_switches = a * g
        self.n_nodes = p * a * g

        # (gi, gj) -> list of (switch in gi, switch in gj); both orders kept.
        self._pair_links: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        # switch -> number of global ports in use (for radix accounting).
        self.global_ports_used: Dict[int, int] = {s: 0 for s in range(self.n_switches)}
        self._wire_global_links()

        # -- routing candidate tables ---------------------------------------
        # The installed wiring never changes after construction, so pure
        # functions of it (gateway sets, Valiant pools) are cached as
        # immutable tuples, filled lazily on first use.  The adaptive
        # router reads a Valiant pool on every injection decision;
        # rebuilding them per packet was the single hottest allocation in
        # the simulator.
        self._gateway_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._valiant_pools: Dict[Tuple[int, int], Tuple[int, ...]] = {}

        #: monotonically increasing counter that every fault-control
        #: primitive of the fabric bumps when it changes a link's state.
        #: Consumers that cache anything derived from the ports' ``up``
        #: flags — the adaptive router's live per-switch candidate tables
        #: — compare it once per use and drop their entries when it has
        #: moved.
        self.health_epoch = 0

    # -- id helpers ---------------------------------------------------------

    def switch_group(self, switch: int) -> int:
        return switch // self.params.switches_per_group

    def node_switch(self, node: int) -> int:
        return node // self.params.hosts_per_switch

    def node_group(self, node: int) -> int:
        return self.switch_group(self.node_switch(node))

    def switches_in_group(self, group: int) -> range:
        a = self.params.switches_per_group
        return range(group * a, (group + 1) * a)

    def nodes_on_switch(self, switch: int) -> range:
        p = self.params.hosts_per_switch
        return range(switch * p, (switch + 1) * p)

    def nodes_in_group(self, group: int) -> range:
        a, p = self.params.switches_per_group, self.params.hosts_per_switch
        return range(group * a * p, (group + 1) * a * p)

    # -- wiring -------------------------------------------------------------

    def _wire_global_links(self) -> None:
        params = self.params
        g, a, L = params.n_groups, params.switches_per_group, params.links_per_pair
        slot = [0] * g  # per-group global-port slot counter
        for gi in range(g):
            for gj in range(gi + 1, g):
                links: List[Tuple[int, int]] = []
                for _ in range(L):
                    si = gi * a + (slot[gi] % a)
                    sj = gj * a + (slot[gj] % a)
                    slot[gi] += 1
                    slot[gj] += 1
                    links.append((si, sj))
                    self.global_ports_used[si] += 1
                    self.global_ports_used[sj] += 1
                self._pair_links[(gi, gj)] = links
                self._pair_links[(gj, gi)] = [(b, c) for (c, b) in links]

    # -- queries ------------------------------------------------------------

    def group_pair_links(self, gi: int, gj: int) -> List[Tuple[int, int]]:
        """Global links between two groups as (switch in gi, switch in gj)."""
        if gi == gj:
            raise ValueError("no global links within a group")
        return self._pair_links[(gi, gj)]

    def gateways(self, gi: int, gj: int) -> Tuple[int, ...]:
        """Switches in group gi with a direct link to group gj.

        Cached as an immutable tuple (ascending switch ids, exactly the
        order the pre-cache implementation produced): the wiring is fixed
        at construction, and the adaptive router reads this on the hot
        path of every gateway-routed decision.
        """
        key = (gi, gj)
        out = self._gateway_cache.get(key)
        if out is None:
            out = tuple(sorted({si for si, _ in self._pair_links[key]}))
            self._gateway_cache[key] = out
        return out

    def valiant_pool(self, g_src: int, g_dst: int) -> Tuple[int, ...]:
        """Intermediate-group candidates for a Valiant misroute from
        *g_src* towards *g_dst*: every other group, in ascending order
        (the same order the per-decision list comprehension produced)."""
        key = (g_src, g_dst)
        pool = self._valiant_pools.get(key)
        if pool is None:
            pool = tuple(
                g for g in range(self.params.n_groups)
                if g != g_src and g != g_dst
            )
            self._valiant_pools[key] = pool
        return pool

    def local_neighbors(self, switch: int) -> List[int]:
        group = self.switch_group(switch)
        return [s for s in self.switches_in_group(group) if s != switch]

    def all_global_links(self) -> List[Tuple[int, int]]:
        """Every global link once, as (lower-group switch, higher-group switch)."""
        out = []
        g = self.params.n_groups
        for gi in range(g):
            for gj in range(gi + 1, g):
                out.extend(self._pair_links[(gi, gj)])
        return out

    def all_local_links(self) -> List[Tuple[int, int]]:
        """Every intra-group link once (full all-to-all inside each group)."""
        out = []
        for group in range(self.params.n_groups):
            sws = list(self.switches_in_group(group))
            for i, si in enumerate(sws):
                for sj in sws[i + 1 :]:
                    out.append((si, sj))
        return out

    # -- link health (repro.faults) ------------------------------------------

    def bump_health_epoch(self) -> None:
        """Invalidate every epoch-guarded routing table.

        The wiring above never changes; link health lives on the fabric's
        ports.  Every fault-control primitive of
        :class:`~repro.network.fabric.Fabric` calls this after it mutates
        link state, so a table derived from the ports is never read stale.
        """
        self.health_epoch += 1

    # -- analytic bandwidth figures (used by Fig. 6 theory lines) -----------

    def bisection_links(self) -> int:
        """Global links crossing an even group bisection (groups halved)."""
        g = self.params.n_groups
        if g % 2 != 0:
            raise ValueError("bisection defined here for even group counts")
        half = g // 2
        return half * half * self.params.links_per_pair

    def bisection_bandwidth_bytes_ns(self, link_bw: float) -> float:
        """Peak bisection bandwidth counting both directions (paper Fig. 6)."""
        return self.bisection_links() * link_bw * 2

    def alltoall_bandwidth_bytes_ns(self, link_bw: float) -> float:
        """Peak aggregate all-to-all bandwidth (paper Fig. 6).

        In a g-group all-to-all, (g-1)/g of all traffic crosses global
        links, so aggregate bandwidth = g/(g-1) * total global links * bw.
        """
        g = self.params.n_groups
        total_global = self.params.links_per_pair * g * (g - 1) // 2
        # Each link is counted once; traffic uses both directions, and the
        # fraction of traffic that needs a global hop is (g-1)/g.
        return g / (g - 1) * (2 * total_global) * link_bw


@dataclass(frozen=True)
class LargestSystem:
    """Design arithmetic of the largest 1-D dragonfly (paper Fig. 3)."""

    hosts_per_switch: int
    switches_per_group: int
    global_ports_per_switch: int
    n_groups: int
    nodes_per_group: int
    n_endpoints: int
    global_links_per_group: int
    addressing_group_limit: int
    addressable_endpoints: int
    params: DragonflyParams = field(repr=False)


def largest_system(
    radix: int = ROSETTA_RADIX,
    hosts_per_switch: int = 16,
    switches_per_group: int = 32,
    addressing_group_limit: int = 511,
) -> LargestSystem:
    """The paper's largest 1-D dragonfly (Fig. 3) from switches of *radix*.

    With the paper's split (16 host ports, 32 switches/group on a 64-port
    Rosetta), every switch spends 31 ports on full local connectivity,
    leaving h = 17 global ports, hence 32*17 = 544 global links per
    group, g = a*h + 1 = 545 groups, and 545*512 = 279 040 endpoints.
    The addressing scheme caps groups at 511 → 261 632 nodes.
    """
    a = switches_per_group
    h = radix - hosts_per_switch - (a - 1)
    if h < 1:
        raise ValueError("no ports left for global links")
    g = a * h + 1
    params = DragonflyParams(hosts_per_switch, a, g, links_per_pair=1)
    nodes_per_group = hosts_per_switch * a
    return LargestSystem(
        hosts_per_switch=hosts_per_switch,
        switches_per_group=a,
        global_ports_per_switch=h,
        n_groups=g,
        nodes_per_group=nodes_per_group,
        n_endpoints=g * nodes_per_group,
        global_links_per_group=a * h,
        addressing_group_limit=addressing_group_limit,
        addressable_endpoints=min(g, addressing_group_limit) * nodes_per_group,
        params=params,
    )
