"""Regression: route caches observe fault-control mutations immediately.

The epoch-guarded degraded caches must never serve a stale candidate
set: the instant ``fail_link`` returns, no routing decision may hand a
packet to the dead port; the instant ``restore_link`` returns, the
restored port is a candidate again.  A flapping link — the worst case
for any cache, with the mask changing dozens of times mid-run — must
leave the cached router's behaviour indistinguishable from the
table-free reference router's in ``tests/oracles/routing.py`` (same
reroute/no-route counters, same deliveries, same event stream).
"""

import random

import pytest

from repro.core.adaptive_routing import AdaptiveRouter
from repro.faults import FaultSchedule
from repro.network.dragonfly import DragonflyParams
from repro.systems import malbec_mini, slingshot_config
from repro.validate.differ import EventTrace
from tests.oracles.routing import ReferenceAdaptiveRouter


def _global_key(fabric):
    return next(k for k in sorted(fabric.links) if k[0] == "global")


def _local_key(fabric):
    return next(k for k in sorted(fabric.links) if k[0] == "local")


def test_deg_cache_sees_fail_and_restore_immediately():
    """Unit-level: the cached candidate tuples flip with the link state."""
    fabric = malbec_mini().build()
    router = fabric.router
    topo = fabric.topology
    key = _global_key(fabric)
    ref = fabric.links[key]
    dead_ports = set(ref.ports)
    sw = ref.ports[0].owner
    target_g = ref.ports[0].rx.group

    # Prime the degraded caches while a *different* link is down, so the
    # fabric is in degraded mode but this link's candidates are live.
    other = _local_key(fabric)
    fabric.fail_link(other)
    direct, _gws, had = router._deg_global_ports(sw, target_g)
    assert had and ref.ports[0] in direct
    rebuilds = router.deg_cache_rebuilds

    fabric.fail_link(key)
    direct2, _gws2, _had2 = router._deg_global_ports(sw, target_g)
    assert router.deg_cache_rebuilds > rebuilds  # epoch bump forced a rebuild
    assert not (set(direct2) & dead_ports)

    fabric.restore_link(key)
    direct3, _gws3, _had3 = router._deg_global_ports(sw, target_g)
    assert direct3 == direct
    fabric.restore_link(other)


def test_degrade_link_bumps_epoch():
    fabric = malbec_mini().build()
    before = fabric.topology.health_epoch
    fabric.degrade_link(_global_key(fabric), 0.5)
    assert fabric.topology.health_epoch > before


def test_no_stale_route_exits_dead_port_under_flapping():
    """Every routing decision taken during a flap must return a live port
    (or None) — a stale cached candidate would surface right here."""
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
    schedule are identical between the cached and uncached routers."""
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

    fab_tab, trace_tab = run(None)  # default: table-driven AdaptiveRouter
    fab_ref, trace_ref = run(ReferenceAdaptiveRouter)
    assert fab_tab.router.reroutes == fab_ref.router.reroutes
    assert fab_tab.router.no_route == fab_ref.router.no_route
    assert fab_tab.packets_delivered() == fab_ref.packets_delivered()
    assert fab_tab.packets_dropped() == fab_ref.packets_dropped()
    assert trace_tab.fingerprint() == trace_ref.fingerprint()
