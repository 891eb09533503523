"""Regression: live route tables observe fault-control mutations immediately.

The per-switch live candidate tables must never serve a stale entry: the
instant ``fail_link`` returns, no routing decision may hand a packet to
the dead port — including from an entry built while the fabric was
still healthy; the instant ``restore_link`` returns, the restored port
is a candidate again.  A flapping link — the worst case for any cache,
with link health changing dozens of times mid-run — must leave the
router's behaviour indistinguishable from the table-free reference
router's in ``tests/oracles/routing.py`` (same reroute/no-route
counters, same deliveries, same event stream).
"""

import random

import pytest

from repro.core.adaptive_routing import AdaptiveRouter
from repro.faults import FaultSchedule
from repro.network.dragonfly import DragonflyParams
from repro.network.packet import Packet
from repro.systems import malbec_mini, slingshot_config
from repro.validate.differ import EventTrace
from tests.oracles.routing import ReferenceAdaptiveRouter


def _global_key(fabric):
    return next(k for k in sorted(fabric.links) if k[0] == "global")


def _local_key(fabric):
    return next(k for k in sorted(fabric.links) if k[0] == "local")


def _global_entry(fabric, sw, group):
    """Route one transit packet from *sw* towards *group* (which brings
    the router's tables up to the current health epoch) and return the
    live entry it routed from."""
    topo = fabric.topology
    pkt = Packet(topo.nodes_on_switch(sw.id)[0], topo.nodes_in_group(group)[0], 1024)
    pkt.hops = 2  # past injection: minimal candidates only
    port = fabric.router.route(sw, pkt)
    assert port is None or port.up
    return sw.rt_global[group]


def test_live_table_sees_fail_and_restore_immediately():
    """Unit-level: the live candidate entry flips with the link state."""
    fabric = malbec_mini().build()
    key = _global_key(fabric)
    ref = fabric.links[key]
    dead_ports = set(ref.ports)
    sw = ref.ports[0].owner
    target_g = ref.ports[0].rx.group

    # Build the entry while a *different* link is down, so the fabric is
    # degraded but this link's candidates are live.
    other = _local_key(fabric)
    fabric.fail_link(other)
    entry = _global_entry(fabric, sw, target_g)
    ports, direct, rerouted = entry
    assert direct and not rerouted and ref.ports[0] in ports

    fabric.fail_link(key)
    entry2 = _global_entry(fabric, sw, target_g)
    assert entry2 is not entry  # the epoch bump forced a rebuild
    assert not (set(entry2[0]) & dead_ports)

    fabric.restore_link(key)
    assert _global_entry(fabric, sw, target_g) == entry
    fabric.restore_link(other)


def test_entry_built_while_healthy_never_serves_a_port_killed_later():
    """First fault: tables filled on a healthy fabric must not outlive it.

    Every switch routes injection and transit packets to every node, so
    every global and detour entry the traffic can reach exists; then a
    global and a local link fail, and no decision may return a dead port.
    """
    fabric = malbec_mini().build()
    router = fabric.router
    topo = fabric.topology

    def route_everywhere():
        out = []
        for sw in fabric.switches:
            src = topo.nodes_on_switch(sw.id)[0]
            for dst in range(topo.n_nodes):
                for hops in (1, 2):
                    pkt = Packet(src, dst, 1024)
                    pkt.hops = hops
                    out.append(router.route(sw, pkt))
        return out

    assert all(p is not None and p.up for p in route_everywhere())
    assert not fabric.links_down() and any(sw.rt_global for sw in fabric.switches)
    assert any(sw.rt_detour for sw in fabric.switches)

    dead = set()
    for key in (_global_key(fabric), _local_key(fabric)):
        fabric.fail_link(key)
        dead.update(fabric.links[key].ports)
    routed = [p for p in route_everywhere() if p is not None]
    assert routed and not (set(routed) & dead)
    assert all(p.up for p in routed)


def test_degrade_link_bumps_epoch():
    fabric = malbec_mini().build()
    before = fabric.topology.health_epoch
    fabric.degrade_link(_global_key(fabric), 0.5)
    assert fabric.topology.health_epoch > before


def test_no_stale_route_exits_dead_port_under_flapping():
    """Every routing decision taken during a flap must return a live port
    (or None) — a stale table entry would surface right here."""
    cfg = slingshot_config(
        DragonflyParams(2, 2, 4, links_per_pair=1), seed=7
    )
    fabric = cfg.build()
    key = _global_key(fabric)
    schedule = FaultSchedule.flap(
        key, t_start=5_000.0, t_end=300_000.0, period=20_000.0
    )
    fabric.attach_faults(
        schedule, base_rto_ns=50_000.0, max_rto_ns=200_000.0
    )

    router = fabric.router
    assert type(router) is AdaptiveRouter
    route = router.route
    decisions = [0]

    def checked(sw, pkt):
        port = route(sw, pkt)
        if port is not None:
            decisions[0] += 1
            assert port.up, (
                f"stale route: {port.name or port.kind} is down at "
                f"t={fabric.sim.now}"
            )
        return port

    router.route = checked

    rng = random.Random(7)
    nn = fabric.topology.n_nodes
    msgs = []
    while len(msgs) < 16:
        src, dst = rng.randrange(nn), rng.randrange(nn)
        if src == dst:
            continue
        msgs.append(fabric.send(src, dst, rng.choice([4_000, 24_000])))
    fabric.sim.run()

    assert decisions[0] > 0
    assert all(m.complete for m in msgs)
    fabric.assert_quiescent()
    assert fabric.links_down() == []


@pytest.mark.parametrize("flap_global", [True, False])
def test_flapping_counters_match_reference_router(flap_global):
    """reroutes/no_route (and the whole event stream) under a flapping
    schedule are identical between the table-driven and reference routers."""
    cfg = slingshot_config(
        DragonflyParams(2, 2, 4, links_per_pair=1), seed=11
    )

    def run(router_factory):
        fabric = cfg.with_(router_factory=router_factory).build()
        key = _global_key(fabric) if flap_global else _local_key(fabric)
        fabric.attach_faults(
            FaultSchedule.flap(
                key, t_start=5_000.0, t_end=300_000.0, period=15_000.0
            ),
            base_rto_ns=50_000.0,
            max_rto_ns=200_000.0,
        )
        trace = EventTrace()
        fabric.sim.event_hook = trace
        rng = random.Random(11)
        nn = fabric.topology.n_nodes
        sent = 0
        while sent < 14:
            src, dst = rng.randrange(nn), rng.randrange(nn)
            if src == dst:
                continue
            fabric.send(src, dst, rng.choice([8, 4_000, 24_000]))
            sent += 1
        fabric.sim.run()
        return fabric, trace

    fab_tab, trace_tab = run(None)  # default: the live-table AdaptiveRouter
    fab_ref, trace_ref = run(ReferenceAdaptiveRouter)
    assert fab_tab.router.reroutes == fab_ref.router.reroutes
    assert fab_tab.router.no_route == fab_ref.router.no_route
    assert fab_tab.packets_delivered() == fab_ref.packets_delivered()
    assert fab_tab.packets_dropped() == fab_ref.packets_dropped()
    assert trace_tab.fingerprint() == trace_ref.fingerprint()
