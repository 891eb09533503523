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
reduced capacity") is part of candidate generation, not a mode: dead
ports never enter a candidate set, a switch whose own global links to
the target group are all dead falls back to live gateway switches, and
a dead local link is detoured around through a neighbour that still
reaches the destination switch — re-biasing toward non-minimal paths
exactly when a minimal path is down.  The decision rule (UGAL scoring)
is unchanged.  If *no* live candidate exists the router returns
``None`` and the switch drops the packet; the NIC's end-to-end
retransmission timer (repro.faults) re-injects it.  On a healthy fabric
every port is live, so the one generator yields the healthy decisions.

Candidate tables: ``route()`` is the most-executed code in the simulator
after the event loop, so candidate generation is table-driven the way
real Rosetta switches route.  Each switch keeps lazily built tuples of
*live* ports: per target group, its live global links to that group or,
when none is left, its local ports towards the group's live gateway
switches; per destination switch, its live local detours.  The topology
keeps the "other groups" Valiant pools.  The tables are functions of the
installed wiring and the ports' ``up`` flags, and every fault-control
primitive bumps the topology's ``health_epoch``: the router compares it
once per decision and drops every switch's entries when it has moved,
so no decision ever sees a port that a fault killed, and the entries
rebuild lazily from the flags.  RNG sampling still happens live on
the cached populations, through :func:`repro.sim.rng.sample` — an inlined
copy of ``random.Random.sample`` that makes the same ``getrandbits``
draws.  Sampling (like ``choice``) consumes the RNG as a function of
population *length* only, and the tuples preserve the exact length and
order of the per-decision lists they replace, so decisions are
bit-identical to the table-free reference router in
``tests/oracles/routing.py``, which recomputes candidate sets per packet
and samples through the library, and which property tests pin against
the tables on healthy and faulted fabrics.

Three policies are provided: :class:`AdaptiveRouter` (Slingshot and, with
different parameters, Aries), :class:`MinimalRouter` and
:class:`ValiantRouter` (ablation baselines).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..sim.rng import sample, stable_hash

__all__ = [
    "AdaptiveRouter",
    "MinimalRouter",
    "ValiantRouter",
    "MAX_DEGRADED_HOPS",
]

#: Hop budget before a packet is dropped rather than detoured again
#: (livelock guard around failed links; a healthy fabric never reaches it,
#: its worst case is 6 switch hops).  End-to-end recovery re-injects
#: anything this cuts off.
MAX_DEGRADED_HOPS = 12


class AdaptiveRouter:
    """UGAL-flavoured adaptive routing over a dragonfly fabric.

    One router instance serves the whole fabric (it is stateless apart
    from its RNG, its fault counters and the epoch of the switches' live
    tables; all congestion state is read from the ports).
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
        if n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
        self.topo = topology
        self.nonmin_penalty = nonmin_penalty
        self.min_bias_bytes = min_bias_bytes
        self.n_candidates = n_candidates
        self.allow_nonminimal = allow_nonminimal
        # per-TC multiplier on the non-minimal penalty (QoS routing bias)
        self.tc_routing_bias = tc_routing_bias or (lambda tc: 1.0)
        self._rng = random.Random(stable_hash("router", seed))
        self._getrandbits = self._rng.getrandbits
        #: observer slot (repro.probe); None = zero-overhead path
        self.probe = None
        #: fault statistics, always 0 on a healthy fabric: decisions where
        #: the minimal path was dead and traffic was steered around it, and
        #: decisions with no live port at all
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
        #: the health epoch the switches' live tables were built under,
        #: and the switches holding entries (what a flush must clear)
        self._epoch = topology.health_epoch
        self._tabled: list = []

    # -- helpers -------------------------------------------------------------

    def _sample(self, seq, k: int):
        """*k* RNG-sampled elements, or *seq* itself when it already fits.

        The no-sample branch returns the input sequence uncopied (callers
        only iterate).  The sampled branch is :func:`repro.sim.rng.sample`,
        the library sampler drawn through ``getrandbits``; it consumes the
        RNG as a function of ``len(seq)`` alone, which is what lets the
        cached port tuples substitute for the historical id lists
        bit-identically.
        """
        if len(seq) <= k:
            return seq
        return sample(self._getrandbits, seq, k)

    @staticmethod
    def _least_loaded(ports) -> "object":
        # first-wins minimum of congestion_score()
        best = ports[0]
        best_score = best.congestion_score()
        for i in range(1, len(ports)):
            p = ports[i]
            s = p.congestion_score()
            if s < best_score:
                best, best_score = p, s
        return best

    def _pick(self, sw, pkt, candidates):
        """UGAL decision rule over the candidate set."""
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
            score = port.congestion_score()
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

    # -- live candidate tables -----------------------------------------------
    #
    # Each tuple applies the link-health filters the reference router
    # applies per packet and preserves the exact length and element order
    # of the list it computes, so live RNG sampling over it selects the
    # same elements.  Entries are valid for one health epoch.

    def _flush(self) -> None:
        """Drop every switch's live tables: link health has moved."""
        for sw in self._tabled:
            sw.rt_global.clear()
            sw.rt_detour.clear()
        self._tabled.clear()
        self._epoch = self.topo.health_epoch

    def _build_global(self, sw, group) -> tuple:
        """``(ports, direct, rerouted)``: *sw*'s live global links to
        *group* (``direct``) or, when none is left, its live local ports
        towards the group's live gateway switches; ``rerouted`` marks a
        gateway entry whose minimal route is gone (the switch's own links
        to the group all died, or no live gateway is left either)."""
        if not (sw.rt_global or sw.rt_detour):
            self._tabled.append(sw)
        installed = sw.ports_to_group.get(group)
        direct = tuple(p for p in (installed or ()) if p.up)
        if direct:
            ent = (direct, True, False)
        else:
            p2s = sw.port_to_switch
            me = sw.id
            gws = tuple(
                p2s[g]
                for g in self.topo.gateways(sw.group, group)
                if g != me
                and p2s[g].up
                and any(p.up for p in p2s[g].rx.ports_to_group[group])
            )
            ent = (gws, False, bool(installed) or not gws)
        sw.rt_global[group] = ent
        return ent

    def _build_detour(self, sw, dst_sw) -> tuple:
        """Live local detours towards *dst_sw*: ports to the neighbours
        whose link from *sw* is up and whose onward link is up."""
        if not (sw.rt_global or sw.rt_detour):
            self._tabled.append(sw)
        p2s = sw.port_to_switch
        ports = tuple(
            p2s[s]
            for s in self.topo.local_neighbors(sw.id)
            if s != dst_sw and p2s[s].up and p2s[s].rx.port_to_switch[dst_sw].up
        )
        sw.rt_detour[dst_sw] = ports
        return ports

    def _towards(self, sw, group):
        """Best live port from *sw* towards *group*: the least-loaded
        direct global link, else the least-loaded of a sample of live
        gateway ports; None if the group is unreachable."""
        ent = sw.rt_global.get(group)
        if ent is None:
            ent = self._build_global(sw, group)
        ports, direct, _rerouted = ent
        if not direct:
            if not ports:
                return None
            ports = self._sample(ports, self.n_candidates)
        return ports[0] if len(ports) == 1 else self._least_loaded(ports)

    # -- main entry ------------------------------------------------------------

    def route(self, sw, pkt):
        """The output port for *pkt* at *sw*, or None (drop) when no live
        candidate exists.

        Dead ports never enter the candidate set; when every minimal
        option is dead the router *reroutes* — a local detour through a
        neighbour that still reaches the destination switch, or a live
        gateway for a dead direct global link.  Detours around failures
        are taken even by :class:`MinimalRouter`: fault avoidance is
        resiliency, not congestion-driven non-minimality.
        """
        if self.topo.health_epoch != self._epoch:
            self._flush()
        dst = pkt.dst
        dst_sw = dst // self._hps
        if dst_sw == sw.id:
            port = sw.port_to_node[dst]
            if not port.up:
                self.no_route += 1
                return None
            if self.probe is not None:
                self.probe.routed(self, sw, pkt, port, False, None)
            return port
        if pkt.hops >= MAX_DEGRADED_HOPS:
            self.no_route += 1
            return None

        # Entering the Valiant intermediate group completes the misroute.
        inter = pkt.intermediate_group
        group = sw.group
        if inter is not None and group == inter:
            pkt.intermediate_group = inter = None

        dst_g = dst_sw // self._spg
        target_g = dst_g if inter is None else inter
        n = self.n_candidates

        if target_g == group:
            # Local leg: minimal is the direct link to the destination
            # switch; at injection it competes with detours through a
            # neighbour, and a dead one is replaced by them.
            port = sw.port_to_switch[dst_sw]
            live = port.up
            if live and not (self.allow_nonminimal and pkt.hops == 1):
                if self.probe is not None:
                    self.probe.routed(self, sw, pkt, port, False, None)
                return port
            detours = sw.rt_detour.get(dst_sw)
            if detours is None:
                detours = self._build_detour(sw, dst_sw)
            cand = self._cand
            cand.clear()
            if live:
                cand.append((port, False, None))
            elif detours:
                self.reroutes += 1
            else:
                self.no_route += 1
                return None
            for p in self._sample(detours, n):
                cand.append((p, True, None))
            return self._pick(sw, pkt, cand)

        # Global leg: live direct global links if this switch has any,
        # otherwise a local hop towards a live gateway switch.  _sample's
        # no-sample branch is inlined (the common case at mini scale).
        ent = sw.rt_global.get(target_g)
        if ent is None:
            ent = self._build_global(sw, target_g)
        ports, _direct, rerouted = ent
        mins = ports if len(ports) <= n else sample(self._getrandbits, ports, n)

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
            for k in self._sample(self.topo.valiant_pool(group, dst_g), n):
                port = self._towards(sw, k)
                if port is not None:
                    cand.append((port, True, k))
            if not cand:
                self.no_route += 1
                return None
            if rerouted:
                self.reroutes += 1
            return self._pick(sw, pkt, cand)

        if rerouted:
            if not mins:
                self.no_route += 1
                return None
            self.reroutes += 1
        # Minimal-only candidate set: UGAL over same-length minimal paths
        # reduces to least-loaded with first-wins tie-break.
        port = mins[0] if len(mins) == 1 else self._least_loaded(mins)
        if self.probe is not None:
            self.probe.routed(self, sw, pkt, port, False, None)
        return port


class MinimalRouter(AdaptiveRouter):
    """Minimal-only routing (still picks the least-loaded parallel link)."""

    def __init__(self, topology, seed: int = 0, **kwargs):
        kwargs["allow_nonminimal"] = False
        super().__init__(topology, seed, **kwargs)


class ValiantRouter(AdaptiveRouter):
    """Always misroute through a random intermediate group/switch.

    The classic congestion-oblivious baseline: balances any traffic
    pattern at the cost of doubled path length.  It reads the same live
    tables as :class:`AdaptiveRouter`, so it routes around dead links
    the same way.
    """

    def route(self, sw, pkt):
        topo = self.topo
        if topo.health_epoch != self._epoch:
            self._flush()
        dst_sw = topo.node_switch(pkt.dst)
        if dst_sw == sw.id:
            port = sw.port_to_node[pkt.dst]
            if not port.up:
                self.no_route += 1
                return None
            if self.probe is not None:
                self.probe.routed(self, sw, pkt, port, False, None)
            return port
        if pkt.hops >= MAX_DEGRADED_HOPS:
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
                ports = sw.rt_detour.get(dst_sw)
                if ports is None:
                    ports = self._build_detour(sw, dst_sw)
                if ports:
                    port = self._rng.choice(ports)
                    if self.probe is not None:
                        self.probe.routed(self, sw, pkt, port, True, None)
                    return port
        target_g = pkt.intermediate_group if pkt.intermediate_group is not None else dst_g
        if target_g == sw.group:
            port = sw.port_to_switch[dst_sw]
            if not port.up:
                port = None
        else:
            port = self._towards(sw, target_g)
        if port is None:
            self.no_route += 1
            return None
        if self.probe is not None:
            self.probe.routed(
                self, sw, pkt, port, misrouted is not None, misrouted
            )
        return port
