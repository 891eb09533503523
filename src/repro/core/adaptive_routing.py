"""Adaptive routing (paper §II-C).

Slingshot's routing, as the paper describes it: before sending a packet,
the source switch estimates the load of up to four minimal and
non-minimal paths and picks the best, weighing both congestion and path
length, with a bias towards minimal paths.  Congestion estimates come
from output-queue depth plus *credit occupancy* — bytes sitting in the
next switch's input buffer — which is the request-queue-credit signal
§II-A describes.

Model choices:

* Adaptivity (the minimal/Valiant decision) happens at the injection
  switch, UGAL-style; after that the packet follows minimal routes with
  per-hop choice among equivalent gateways/parallel links.  This matches
  dragonfly practice and bounds paths at one global misroute.
* A Valiant-misrouted packet carries its intermediate group; on entering
  that group it reverts to minimal routing towards the destination.
* Non-minimal candidates pay a multiplicative length penalty plus an
  additive bias, so a quiet network always routes minimally ("biases
  packets to take minimal paths more frequently").

Fault awareness (paper §II-F, "the fabric keeps serving traffic at
reduced capacity"): when the topology's link-health mask reports any
degradation, candidate generation switches to a fault-aware variant that
excludes dead ports, falls back from dead direct global links to live
gateway switches, and detours around a dead local link through a
neighbour that still reaches the destination switch — re-biasing toward
non-minimal paths exactly when a minimal path is down.  The decision
rule (UGAL scoring) is unchanged.  If *no* live candidate exists the
router returns ``None`` and the switch drops the packet; the NIC's
end-to-end retransmission timer (repro.faults) re-injects it.  On a
healthy fabric the degraded path is never entered: the only cost is one
flag check per routing decision, and decisions are bit-identical.

Fast path (table-driven routing): ``route()`` is the most-executed code
in the simulator after the event loop, so candidate generation is
table-driven the way real Rosetta switches route.  Healthy-path
candidate sets are pure functions of the installed wiring and are
materialized once as immutable tuples (gateway-port fan-outs per target
group on each switch, local-detour sets per destination switch, the
"other groups" Valiant pool on the topology); degraded-mode candidate
sets additionally depend on the link-health mask and are cached per
``(switch, target, health_epoch)`` — every fault-control mutation bumps
the topology's ``health_epoch``, so caches invalidate immediately and
rebuild lazily on the next decision.  RNG sampling still happens live on
the cached populations (``random.sample``/``choice`` consume the RNG as
a function of population *length* only, and the tuples preserve the
exact length and order of the per-decision lists they replace), so
decisions are bit-identical to the table-free reference router in
``tests/oracles/routing.py``, which property tests pin against the fast
path.

Three policies are provided: :class:`AdaptiveRouter` (Slingshot and, with
different parameters, Aries), :class:`MinimalRouter` and
:class:`ValiantRouter` (ablation baselines).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..sim.rng import stable_hash

__all__ = [
    "AdaptiveRouter",
    "MinimalRouter",
    "ValiantRouter",
    "MAX_DEGRADED_HOPS",
    "reachable_switches",
]

#: Hop budget on a degraded fabric before a packet is dropped rather than
#: detoured again (livelock guard; healthy worst case is 6 switch hops).
#: End-to-end recovery re-injects anything this cuts off.
MAX_DEGRADED_HOPS = 12


def reachable_switches(fabric, start: int) -> set:
    """Switch ids reachable from *start* over live inter-switch wires.

    BFS over the fabric's link directory using the same ``up`` flags the
    degraded router consults, so this is exactly the set of switches the
    routing layer could in principle still deliver to.  The invariant
    auditor (repro.validate) uses it to assert routing reachability
    under the current health mask; it is not on any hot path.
    """
    adj: dict = {}
    for ref in fabric.links.values():
        if ref.kind == "host" or not ref.up:
            continue
        for port in ref.ports:
            adj.setdefault(port.owner.id, []).append(port.rx.id)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for t in adj.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


class AdaptiveRouter:
    """UGAL-flavoured adaptive routing over a dragonfly fabric.

    One router instance serves the whole fabric (it is stateless apart
    from its RNG and its routing tables; all congestion state is read
    from the ports).
    """

    #: multiplicative penalty on non-minimal candidates (2 ≈ double length)
    DEFAULT_NONMIN_PENALTY = 2.0
    #: additive bytes a non-minimal path must beat (minimal bias)
    DEFAULT_MIN_BIAS_BYTES = 12_000.0

    def __init__(
        self,
        topology,
        seed: int = 0,
        nonmin_penalty: float = DEFAULT_NONMIN_PENALTY,
        min_bias_bytes: float = DEFAULT_MIN_BIAS_BYTES,
        n_candidates: int = 2,
        allow_nonminimal: bool = True,
        tc_routing_bias=None,
    ):
        self.topo = topology
        self.nonmin_penalty = nonmin_penalty
        self.min_bias_bytes = min_bias_bytes
        self.n_candidates = n_candidates
        self.allow_nonminimal = allow_nonminimal
        # per-TC multiplier on the non-minimal penalty (QoS routing bias)
        self.tc_routing_bias = tc_routing_bias or (lambda tc: 1.0)
        self._rng = random.Random(stable_hash("router", seed))
        #: observer slot (repro.probe); None = zero-overhead path
        self.probe = None
        #: fault statistics, only ever touched on a degraded fabric:
        #: decisions where the minimal path was dead and traffic was
        #: steered around it, and decisions with no live port at all
        self.reroutes = 0
        self.no_route = 0
        # structural constants hoisted off the hot path (the params
        # dataclass is frozen, so these can never go stale)
        p = topology.params
        self._hps = p.hosts_per_switch
        self._spg = p.switches_per_group
        self._n_groups = p.n_groups
        #: reusable candidate scratch list — route() is never re-entered,
        #: so one list per router replaces one allocation per decision
        self._cand: List[Tuple[object, bool, Optional[int]]] = []
        # Degraded-mode candidate caches, keyed (switch id, target) and
        # guarded by the topology's health_epoch: rebuilt lazily after
        # each fault-control mutation instead of re-filtered per packet.
        self._deg_cache: Dict[Tuple[int, int], tuple] = {}
        self._deg_local_cache: Dict[Tuple[int, int], tuple] = {}
        #: diagnostic: degraded cache entries (re)built so far
        self.deg_cache_rebuilds = 0

    # -- helpers -------------------------------------------------------------

    def _sample(self, seq, k: int):
        """*k* RNG-sampled elements, or *seq* itself when it already fits.

        The no-sample branch returns the input sequence uncopied (callers
        only iterate); the sampled branch consumes the RNG as a function
        of ``len(seq)`` alone, which is what lets the cached port tuples
        substitute for the historical id lists bit-identically.
        """
        if len(seq) <= k:
            return seq
        return self._rng.sample(seq, k)

    @staticmethod
    def _least_loaded(ports) -> "object":
        # Port scores are read through the congestion_score cache's fast
        # branch (valid entry) without the method call; a stale entry
        # falls back to the full recompute, so the value is always
        # exactly what congestion_score() returns.
        best = ports[0]
        best_score = (
            best._score_val if best._score_ok else best.congestion_score()
        )
        for i in range(1, len(ports)):
            p = ports[i]
            s = p._score_val if p._score_ok else p.congestion_score()
            if s < best_score:
                best, best_score = p, s
        return best

    def _pick(self, sw, pkt, candidates):
        """UGAL decision rule over the candidate set (shared by the healthy
        and degraded paths; the candidate *generation* is what differs)."""
        if len(candidates) == 1:
            port, nonmin, inter = candidates[0]
            if inter is not None:
                pkt.intermediate_group = inter
            if self.probe is not None:
                self.probe.routed(self, sw, pkt, port, nonmin, inter)
            return port

        bias_mult = self.tc_routing_bias(pkt.tc)
        # Lexicographic (score, nonmin, index) minimum without building a
        # tuple key per candidate: the index tie-break is first-wins, so a
        # later candidate only displaces the best on a strictly smaller
        # score, or an equal score with nonmin False against True.
        best = None
        best_score = 0.0
        best_nonmin = False
        for cand in candidates:
            port, nonmin, _inter = cand
            score = (
                port._score_val if port._score_ok else port.congestion_score()
            )
            if nonmin:
                score = (
                    score * self.nonmin_penalty * bias_mult
                    + self.min_bias_bytes * bias_mult
                )
            if (
                best is None
                or score < best_score
                or (score == best_score and nonmin < best_nonmin)
            ):
                best, best_score, best_nonmin = cand, score, nonmin
        port, nonmin, inter = best
        if inter is not None:
            pkt.intermediate_group = inter
        if self.probe is not None:
            self.probe.routed(self, sw, pkt, port, nonmin, inter)
        return port

    # -- candidate tables ----------------------------------------------------
    #
    # Healthy-path tables are pure functions of the installed wiring; they
    # live on the switch (filled lazily, never invalidated).  Each tuple
    # preserves the exact length and element order of the per-decision
    # list it replaces, so live RNG sampling over it selects the same
    # elements the reference implementation would.

    def _build_gateway_ports(self, sw, group) -> tuple:
        ports = tuple(
            sw.port_to_switch[g] for g in self.topo.gateways(sw.group, group)
        )
        sw.rt_gateway_ports[group] = ports
        return ports

    def _build_detour_ports(self, sw, dst_sw) -> tuple:
        ports = tuple(
            sw.port_to_switch[s]
            for s in self.topo.local_neighbors(sw.id)
            if s != dst_sw
        )
        sw.rt_detour_ports[dst_sw] = ports
        return ports

    # Degraded-mode candidate sets: same filters the reference degraded
    # path applies per packet, computed once per (switch, target) per
    # health epoch.

    def _deg_global_ports(self, sw, group) -> tuple:
        """(live direct ports, live gateway ports, had any direct links)."""
        key = (sw.id, group)
        epoch = self.topo.health_epoch
        ent = self._deg_cache.get(key)
        if ent is not None and ent[0] == epoch:
            return ent[1], ent[2], ent[3]
        topo = self.topo
        installed = sw.ports_to_group.get(group)
        direct = tuple(p for p in (installed or ()) if p.up)
        p2s = sw.port_to_switch
        me = sw.id
        gws = tuple(
            p2s[g]
            for g in topo.live_gateways(sw.group, group)
            if g != me and p2s[g].up
        )
        had = bool(installed)
        self._deg_cache[key] = (epoch, direct, gws, had)
        self.deg_cache_rebuilds += 1
        return direct, gws, had

    def _deg_local_ports(self, sw, dst_sw) -> tuple:
        """Live local detour ports towards *dst_sw* (neighbours whose own
        port is up and whose onward link to the destination is up)."""
        key = (sw.id, dst_sw)
        epoch = self.topo.health_epoch
        ent = self._deg_local_cache.get(key)
        if ent is not None and ent[0] == epoch:
            return ent[1]
        topo = self.topo
        p2s = sw.port_to_switch
        ports = tuple(
            p2s[s]
            for s in topo.local_neighbors(sw.id)
            if s != dst_sw and p2s[s].up and topo.local_link_up(s, dst_sw)
        )
        self._deg_local_cache[key] = (epoch, ports)
        self.deg_cache_rebuilds += 1
        return ports

    def invalidate_route_caches(self) -> None:
        """Drop every degraded-mode cache entry (epoch guards already make
        stale entries unreachable; this just releases the memory)."""
        self._deg_cache.clear()
        self._deg_local_cache.clear()

    # -- main entry ------------------------------------------------------------

    def route(self, sw, pkt):
        topo = self.topo
        if topo.degraded:
            return self._route_degraded_tables(sw, pkt)

        dst = pkt.dst
        dst_sw = dst // self._hps
        if dst_sw == sw.id:
            return sw.port_to_node[dst]

        # Entering the Valiant intermediate group completes the misroute.
        inter = pkt.intermediate_group
        group = sw.group
        if inter is not None and group == inter:
            pkt.intermediate_group = inter = None

        dst_g = dst_sw // self._spg
        target_g = dst_g if inter is None else inter
        probe = self.probe
        n = self.n_candidates

        if target_g == group:
            # Local leg: minimal is the direct link to the destination
            # switch; non-minimal (injection only) detours via a neighbour.
            port = sw.port_to_switch[dst_sw]
            if self.allow_nonminimal and pkt.hops == 1 and dst_g == group:
                detours = sw.rt_detour_ports.get(dst_sw)
                if detours is None:
                    detours = self._build_detour_ports(sw, dst_sw)
                if detours:
                    cand = self._cand
                    cand.clear()
                    cand.append((port, False, None))
                    for p in self._sample(detours, n):
                        cand.append((p, True, None))
                    return self._pick(sw, pkt, cand)
            if probe is not None:
                probe.routed(self, sw, pkt, port, False, None)
            return port

        # Global leg: direct global links if this switch has them,
        # otherwise a local hop towards a gateway switch.  _sample is
        # inlined (its no-sample branch is the common case at mini scale).
        direct = sw.ports_to_group.get(target_g)
        if direct:
            mins = direct if len(direct) <= n else self._rng.sample(direct, n)
        else:
            gws = sw.rt_gateway_ports.get(target_g)
            if gws is None:
                gws = self._build_gateway_ports(sw, target_g)
            mins = gws if len(gws) <= n else self._rng.sample(gws, n)

        if (
            self.allow_nonminimal
            and pkt.hops == 1
            and inter is None
            and self._n_groups > 2
        ):
            cand = self._cand
            cand.clear()
            for p in mins:
                cand.append((p, False, None))
            sample = self._sample
            for k in sample(topo.valiant_pool(group, dst_g), n):
                cand.append((self._ptg_tables(sw, k), True, k))
            return self._pick(sw, pkt, cand)

        # Minimal-only candidate set: UGAL over same-length minimal paths
        # reduces to least-loaded with first-wins tie-break.
        port = mins[0] if len(mins) == 1 else self._least_loaded(mins)
        if probe is not None:
            probe.routed(self, sw, pkt, port, False, None)
        return port

    def _ptg_tables(self, sw, group):
        """Best port from *sw* towards *group* on a healthy fabric: direct
        global link if any, else a local hop to a gateway switch."""
        direct = sw.ports_to_group.get(group)
        if direct:
            return direct[0] if len(direct) == 1 else self._least_loaded(direct)
        gws = sw.rt_gateway_ports.get(group)
        if gws is None:
            gws = self._build_gateway_ports(sw, group)
        choices = self._sample(gws, self.n_candidates)
        return choices[0] if len(choices) == 1 else self._least_loaded(choices)

    def _ptg_live_tables(self, sw, group):
        """Fault-aware :meth:`_ptg_tables`; None if unreachable under the
        current health mask."""
        direct, gws, _had = self._deg_global_ports(sw, group)
        if direct:
            return direct[0] if len(direct) == 1 else self._least_loaded(direct)
        if not gws:
            return None
        choices = self._sample(gws, self.n_candidates)
        return choices[0] if len(choices) == 1 else self._least_loaded(choices)

    # -- degraded fabric (table-driven) ---------------------------------------

    def _route_degraded_tables(self, sw, pkt):
        """Degraded candidate generation over the epoch-guarded caches.

        Dead ports never enter the candidate set; when every minimal
        option is dead the router *reroutes* — local detour through a
        neighbour that still reaches the destination switch, or a live
        gateway for a dead direct global link.  Returns ``None`` (drop;
        e2e recovery re-injects) when nothing live remains.  Detours
        around failures are taken even by :class:`MinimalRouter`: fault
        avoidance is resiliency, not congestion-driven non-minimality.
        The per-packet health-mask filters of the reference router are
        replaced by cached tuples rebuilt once per fault.
        """
        topo = self.topo
        dst = pkt.dst
        dst_sw = dst // self._hps
        if dst_sw == sw.id:
            port = sw.port_to_node[dst]
            if port.up:
                if self.probe is not None:
                    self.probe.routed(self, sw, pkt, port, False, None)
                return port
            self.no_route += 1
            return None
        if pkt.hops >= MAX_DEGRADED_HOPS:
            self.no_route += 1
            return None

        inter = pkt.intermediate_group
        group = sw.group
        if inter is not None and group == inter:
            pkt.intermediate_group = inter = None

        dst_g = dst_sw // self._spg
        target_g = dst_g if inter is None else inter
        at_injection = pkt.hops == 1
        n = self.n_candidates
        cand = self._cand
        cand.clear()
        rerouted = False

        if target_g == group:
            min_port = sw.port_to_switch.get(dst_sw)
            if min_port is not None and min_port.up:
                cand.append((min_port, False, None))
                if self.allow_nonminimal and at_injection and dst_g == group:
                    for p in self._sample(self._deg_local_ports(sw, dst_sw), n):
                        cand.append((p, True, None))
            else:
                # Minimal local link is dead: detour through any neighbour
                # that still has a live link onward to the destination.
                rerouted = True
                for p in self._sample(self._deg_local_ports(sw, dst_sw), n):
                    cand.append((p, True, None))
        else:
            direct, gws, had_direct = self._deg_global_ports(sw, target_g)
            if direct:
                for p in self._sample(direct, n):
                    cand.append((p, False, None))
            else:
                if had_direct:
                    rerouted = True  # our own global links to there all died
                if not gws:
                    rerouted = True
                for p in self._sample(gws, n):
                    cand.append((p, False, None))
            if (
                self.allow_nonminimal
                and at_injection
                and inter is None
                and self._n_groups > 2
            ):
                for k in self._sample(topo.valiant_pool(group, dst_g), n):
                    port = self._ptg_live_tables(sw, k)
                    if port is not None:
                        cand.append((port, True, k))

        if not cand:
            self.no_route += 1
            return None
        if rerouted:
            self.reroutes += 1
        return self._pick(sw, pkt, cand)

class MinimalRouter(AdaptiveRouter):
    """Minimal-only routing (still picks the least-loaded parallel link)."""

    def __init__(self, topology, seed: int = 0, **kwargs):
        kwargs["allow_nonminimal"] = False
        super().__init__(topology, seed, **kwargs)


class ValiantRouter(AdaptiveRouter):
    """Always misroute through a random intermediate group/switch.

    The classic congestion-oblivious baseline: balances any traffic
    pattern at the cost of doubled path length.
    """

    def route(self, sw, pkt):
        topo = self.topo
        degraded = topo.degraded
        dst_sw = topo.node_switch(pkt.dst)
        if dst_sw == sw.id:
            port = sw.port_to_node[pkt.dst]
            if degraded and not port.up:
                self.no_route += 1
                return None
            return port
        if degraded and pkt.hops >= MAX_DEGRADED_HOPS:
            self.no_route += 1
            return None
        if pkt.intermediate_group is not None and sw.group == pkt.intermediate_group:
            pkt.intermediate_group = None
        dst_g = topo.switch_group(dst_sw)
        misrouted = None
        if pkt.hops == 1 and pkt.intermediate_group is None:
            if dst_g != sw.group and self._n_groups > 2:
                # choice() draws as a function of population length, so
                # the cached pool substitutes bit-identically.
                pool = topo.valiant_pool(sw.group, dst_g)
                pkt.intermediate_group = misrouted = self._rng.choice(pool)
            elif dst_g == sw.group:
                if degraded:
                    ports = self._deg_local_ports(sw, dst_sw)
                else:
                    ports = sw.rt_detour_ports.get(dst_sw)
                    if ports is None:
                        ports = self._build_detour_ports(sw, dst_sw)
                if ports:
                    port = self._rng.choice(ports)
                    if self.probe is not None:
                        self.probe.routed(self, sw, pkt, port, True, None)
                    return port
        target_g = pkt.intermediate_group if pkt.intermediate_group is not None else dst_g
        if target_g == sw.group:
            port = sw.port_to_switch[dst_sw]
            if degraded and not port.up:
                port = None
        elif degraded:
            port = self._ptg_live_tables(sw, target_g)
        else:
            port = self._ptg_tables(sw, target_g)
        if port is None:
            self.no_route += 1
            return None
        if self.probe is not None:
            self.probe.routed(
                self, sw, pkt, port, misrouted is not None, misrouted
            )
        return port
