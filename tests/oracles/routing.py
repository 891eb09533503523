"""Table-free reference routers (executable specification).

The production :class:`~repro.core.adaptive_routing.AdaptiveRouter` has
one candidate generator that reads per-switch live tables, dropped
whenever the topology's health epoch moves.  The routers here are the
pre-table implementation: a healthy branch and a degraded branch,
candidate sets recomputed per packet from the wiring and the ports'
``up`` flags, and RNG samples drawn by ``random.Random.sample`` itself.
They never read production's tables or its epoch: the degraded branch
is taken whenever any switch port of the fabric is down, found by a
scan of every port on every decision, and live gateways are re-derived
from the topology's global link list.  They also keep their own
UGAL decision rule, the straight-line one: a list of (port,
non-minimal, intermediate group) candidates, every ``congestion_score()``
read again, and the ``min`` over (score, non-minimal, position), where
production keeps a one-pass running minimum.  The hypothesis
equivalence suite and the flapping-schedule regression test pin the
tables, the inlined sampler and the one-pass rule against them,
decision for decision, on healthy, congested and faulted fabrics.  They
differ from production only in what they tell a probe: no final-hop
decision on a healthy fabric, and from the Valiant reference none at
all.

Use them through ``FabricConfig.router_factory``, e.g.
``cfg.with_(router_factory=ReferenceAdaptiveRouter)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.adaptive_routing import MAX_DEGRADED_HOPS, AdaptiveRouter
from repro.network.switch import Switch

__all__ = ["ReferenceAdaptiveRouter", "ReferenceValiantRouter"]


class ReferenceAdaptiveRouter(AdaptiveRouter):
    """:class:`AdaptiveRouter` with per-packet candidate generation."""

    _ports: Tuple = ()

    def _degraded(self, sw) -> bool:
        """Whether any link of the fabric is down right now.

        Every link has a switch-owned port, so this scans the ports of
        every switch, found once by a walk over the installed wiring
        from *sw* (the wiring never changes; the flags are read fresh).
        """
        if not self._ports:
            seen = {sw.id: sw}
            frontier = [sw]
            while frontier:
                nxt = []
                for s in frontier:
                    for port in s.all_ports():
                        peer = port.rx
                        if isinstance(peer, Switch) and peer.id not in seen:
                            seen[peer.id] = peer
                            nxt.append(peer)
                frontier = nxt
            self._ports = tuple(
                p for s in sorted(seen) for p in seen[s].all_ports()
            )
        return not all(p.up for p in self._ports)

    def _live_gateways(self, sw, group) -> List[int]:
        """Switches of *sw*'s group with a live global link to *group*,
        ascending: one per link of the topology's list whose port at the
        gateway is up."""
        gws = set()
        for si, sj in self.topo.group_pair_links(sw.group, group):
            gw = sw if si == sw.id else sw.port_to_switch[si].rx
            if any(p.up and p.rx.id == sj for p in gw.ports_to_group[group]):
                gws.add(si)
        return sorted(gws)

    def _onward_up(self, sw, m, dst_sw) -> bool:
        """Whether neighbour *m* of *sw* has a live link to *dst_sw*."""
        return sw.port_to_switch[m].rx.port_to_switch[dst_sw].up

    def _sample(self, seq, k: int):
        """The library sampler the production router inlines."""
        if len(seq) <= k:
            return seq
        return self._rng.sample(seq, k)

    @staticmethod
    def _least_loaded(ports):
        """The first port with the lowest ``congestion_score()``."""
        return min(ports, key=lambda p: p.congestion_score())

    def _pick(self, sw, pkt, candidates):
        """UGAL over the candidate list: the (score, non-minimal,
        position) minimum, a non-minimal score paying the length penalty
        and the minimal bias."""

        def key(i):
            port, nonmin, _inter = candidates[i]
            score = port.congestion_score()
            if nonmin:
                score = score * self.nonmin_penalty + self.min_bias_bytes
            return (score, nonmin, i)

        port, nonmin, inter = candidates[min(range(len(candidates)), key=key)]
        if inter is not None:
            pkt.intermediate_group = inter
        if self.probe is not None:
            self.probe.routed(self, sw, pkt, port, nonmin, inter)
        return port

    def _port_towards_group(self, sw, group):
        """Best port from *sw* towards *group*: direct global link if any,
        else a local hop to a gateway switch."""
        direct = sw.ports_to_group.get(group)
        if direct:
            return self._least_loaded(direct)
        gws = self.topo.gateways(sw.group, group)
        choices = self._sample(gws, self.n_candidates)
        return self._least_loaded([sw.port_to_switch[g] for g in choices])

    def route(self, sw, pkt):
        if self._degraded(sw):
            return self._route_degraded(sw, pkt)

        dst_sw = self.topo.node_switch(pkt.dst)
        if dst_sw == sw.id:
            return sw.port_to_node[pkt.dst]

        # Entering the Valiant intermediate group completes the misroute.
        if pkt.intermediate_group is not None and sw.group == pkt.intermediate_group:
            pkt.intermediate_group = None

        dst_g = self.topo.switch_group(dst_sw)
        target_g = pkt.intermediate_group if pkt.intermediate_group is not None else dst_g
        at_injection = pkt.hops == 1
        candidates: List[Tuple[object, bool, Optional[int]]] = []
        # each entry: (port, is_nonminimal, intermediate_group_to_set)

        if target_g == sw.group:
            # Local leg: minimal is the direct link to the destination switch.
            candidates.append((sw.port_to_switch[dst_sw], False, None))
            if self.allow_nonminimal and at_injection and dst_g == sw.group:
                others = [s for s in self.topo.local_neighbors(sw.id) if s != dst_sw]
                for m in self._sample(others, self.n_candidates):
                    candidates.append((sw.port_to_switch[m], True, None))
        else:
            direct = sw.ports_to_group.get(target_g)
            if direct:
                for port in self._sample(direct, self.n_candidates):
                    candidates.append((port, False, None))
            else:
                gws = self.topo.gateways(sw.group, target_g)
                for g in self._sample(gws, self.n_candidates):
                    candidates.append((sw.port_to_switch[g], False, None))
            if (
                self.allow_nonminimal
                and at_injection
                and pkt.intermediate_group is None
                and self.topo.params.n_groups > 2
            ):
                pool = [
                    g
                    for g in range(self.topo.params.n_groups)
                    if g != sw.group and g != dst_g
                ]
                for k in self._sample(pool, self.n_candidates):
                    candidates.append((self._port_towards_group(sw, k), True, k))

        return self._pick(sw, pkt, candidates)

    # -- degraded fabric -------------------------------------------------------

    def _port_towards_group_live(self, sw, group):
        """Fault-aware :meth:`_port_towards_group`; None if unreachable."""
        direct = [p for p in (sw.ports_to_group.get(group) or ()) if p.up]
        if direct:
            return self._least_loaded(direct)
        gws = [
            g
            for g in self._live_gateways(sw, group)
            if g != sw.id and sw.port_to_switch[g].up
        ]
        if not gws:
            return None
        choices = self._sample(gws, self.n_candidates)
        return self._least_loaded([sw.port_to_switch[g] for g in choices])

    def _route_degraded(self, sw, pkt):
        """Candidate generation with the ports' ``up`` flags applied per packet."""
        topo = self.topo
        dst_sw = topo.node_switch(pkt.dst)
        if dst_sw == sw.id:
            port = sw.port_to_node[pkt.dst]
            if port.up:
                if self.probe is not None:
                    self.probe.routed(self, sw, pkt, port, False, None)
                return port
            self.no_route += 1
            return None
        if pkt.hops >= MAX_DEGRADED_HOPS:
            self.no_route += 1
            return None

        if pkt.intermediate_group is not None and sw.group == pkt.intermediate_group:
            pkt.intermediate_group = None

        dst_g = topo.switch_group(dst_sw)
        target_g = pkt.intermediate_group if pkt.intermediate_group is not None else dst_g
        at_injection = pkt.hops == 1
        candidates: List[Tuple[object, bool, Optional[int]]] = []
        rerouted = False

        if target_g == sw.group:
            min_port = sw.port_to_switch.get(dst_sw)
            if min_port is not None and min_port.up:
                candidates.append((min_port, False, None))
                if self.allow_nonminimal and at_injection and dst_g == sw.group:
                    others = [
                        s
                        for s in topo.local_neighbors(sw.id)
                        if s != dst_sw
                        and sw.port_to_switch[s].up
                        and self._onward_up(sw, s, dst_sw)
                    ]
                    for m in self._sample(others, self.n_candidates):
                        candidates.append((sw.port_to_switch[m], True, None))
            else:
                # Minimal local link is dead: detour through any neighbour
                # that still has a live link onward to the destination.
                rerouted = True
                detours = [
                    m
                    for m in topo.local_neighbors(sw.id)
                    if m != dst_sw
                    and sw.port_to_switch[m].up
                    and self._onward_up(sw, m, dst_sw)
                ]
                for m in self._sample(detours, self.n_candidates):
                    candidates.append((sw.port_to_switch[m], True, None))
        else:
            had_direct = sw.ports_to_group.get(target_g)
            direct = [p for p in (had_direct or ()) if p.up]
            if direct:
                for port in self._sample(direct, self.n_candidates):
                    candidates.append((port, False, None))
            else:
                if had_direct:
                    rerouted = True  # our own global links to there all died
                gws = [
                    g
                    for g in self._live_gateways(sw, target_g)
                    if g != sw.id and sw.port_to_switch[g].up
                ]
                if not gws:
                    rerouted = True
                for g in self._sample(gws, self.n_candidates):
                    candidates.append((sw.port_to_switch[g], False, None))
            if (
                self.allow_nonminimal
                and at_injection
                and pkt.intermediate_group is None
                and topo.params.n_groups > 2
            ):
                pool = [
                    g
                    for g in range(topo.params.n_groups)
                    if g != sw.group and g != dst_g
                ]
                for k in self._sample(pool, self.n_candidates):
                    port = self._port_towards_group_live(sw, k)
                    if port is not None:
                        candidates.append((port, True, k))

        if not candidates:
            self.no_route += 1
            return None
        if rerouted:
            self.reroutes += 1
        return self._pick(sw, pkt, candidates)


class ReferenceValiantRouter(ReferenceAdaptiveRouter):
    """Table-free :class:`~repro.core.adaptive_routing.ValiantRouter`."""

    def route(self, sw, pkt):
        topo = self.topo
        degraded = self._degraded(sw)
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
                pool = [
                    g
                    for g in range(self._n_groups)
                    if g != sw.group and g != dst_g
                ]
                pkt.intermediate_group = misrouted = self._rng.choice(pool)
            elif dst_g == sw.group:
                others = [s for s in topo.local_neighbors(sw.id) if s != dst_sw]
                if degraded:
                    others = [
                        s
                        for s in others
                        if sw.port_to_switch[s].up
                        and self._onward_up(sw, s, dst_sw)
                    ]
                if others:
                    port = sw.port_to_switch[self._rng.choice(others)]
                    if self.probe is not None:
                        self.probe.routed(self, sw, pkt, port, True, None)
                    return port
        target_g = pkt.intermediate_group if pkt.intermediate_group is not None else dst_g
        if target_g == sw.group:
            port = sw.port_to_switch[dst_sw]
            if degraded and not port.up:
                port = None
        elif degraded:
            port = self._port_towards_group_live(sw, target_g)
        else:
            port = self._port_towards_group(sw, target_g)
        if port is None:
            self.no_route += 1
            return None
        if self.probe is not None:
            self.probe.routed(
                self, sw, pkt, port, misrouted is not None, misrouted
            )
        return port
