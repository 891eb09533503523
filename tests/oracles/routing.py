"""Table-free reference routers (executable specification).

The production :class:`~repro.core.adaptive_routing.AdaptiveRouter`
materializes candidate sets as tables and epoch-guarded caches.  The
routers here are the pre-table implementation, byte for byte: candidate
sets are recomputed per packet from the topology and the live health
mask, and RNG samples are drawn by ``random.Random.sample`` itself.  The
hypothesis equivalence suite and the flapping-schedule regression test
pin the tables and the inlined sampler against them, decision for
decision.

Use them through ``FabricConfig.router_factory``, e.g.
``cfg.with_(router_factory=ReferenceAdaptiveRouter)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.adaptive_routing import MAX_DEGRADED_HOPS, AdaptiveRouter

__all__ = ["ReferenceAdaptiveRouter", "ReferenceValiantRouter"]


class ReferenceAdaptiveRouter(AdaptiveRouter):
    """:class:`AdaptiveRouter` with per-packet candidate generation."""

    def _sample(self, seq, k: int):
        """The library sampler the production router inlines."""
        if len(seq) <= k:
            return seq
        return self._rng.sample(seq, k)

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
        if self.topo.degraded:
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
            for g in self.topo.live_gateways(sw.group, group)
            if g != sw.id and sw.port_to_switch[g].up
        ]
        if not gws:
            return None
        choices = self._sample(gws, self.n_candidates)
        return self._least_loaded([sw.port_to_switch[g] for g in choices])

    def _route_degraded(self, sw, pkt):
        """Candidate generation with the link-health mask applied per packet."""
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
                        and topo.local_link_up(s, dst_sw)
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
                    and topo.local_link_up(m, dst_sw)
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
                    for g in topo.live_gateways(sw.group, target_g)
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
                        and topo.local_link_up(s, dst_sw)
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
