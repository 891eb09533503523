"""Tests for adaptive/minimal/Valiant routing over the fabric."""

import random

import pytest

from repro.core.adaptive_routing import AdaptiveRouter, MinimalRouter, ValiantRouter
from repro.network import KiB
from repro.network.dragonfly import DragonflyParams, DragonflyTopology
from repro.systems import malbec_mini, shandy_mini


def build(router_cls, **router_kwargs):
    cfg = shandy_mini(
        router_factory=lambda topo, seed: router_cls(topo, seed, **router_kwargs)
    )
    return cfg.build()


def run_traffic(fabric, pairs, nbytes=4096):
    msgs = [fabric.send(a, b, nbytes) for a, b in pairs]
    fabric.sim.run()
    fabric.assert_quiescent()
    return msgs


def random_pairs(fabric, n, seed=1):
    rng = random.Random(seed)
    nn = fabric.topology.n_nodes
    out = []
    while len(out) < n:
        a, b = rng.randrange(nn), rng.randrange(nn)
        if a != b:
            out.append((a, b))
    return out


@pytest.mark.parametrize("router_cls", [AdaptiveRouter, MinimalRouter, ValiantRouter])
def test_all_routers_deliver_everything(router_cls):
    fabric = build(router_cls)
    msgs = run_traffic(fabric, random_pairs(fabric, 100))
    assert all(m.complete for m in msgs)


def test_minimal_router_uses_at_most_three_switch_hops():
    fabric = build(MinimalRouter)
    seen_hops = []

    def watch(msg):
        pass

    pairs = random_pairs(fabric, 80)
    msgs = [fabric.send(a, b, 8) for a, b in pairs]
    fabric.sim.run()
    total_forwards = sum(sw.pkts_forwarded for sw in fabric.switches)
    # Minimal dragonfly paths: <= 3 switches for remote, plus the
    # destination switch itself is counted -> at most 4 per packet.
    assert total_forwards <= 4 * fabric.packets_delivered()


def test_valiant_router_takes_longer_paths_than_minimal():
    fmin = build(MinimalRouter)
    fval = build(ValiantRouter)
    pairs_m = random_pairs(fmin, 60, seed=5)
    run_traffic(fmin, pairs_m, nbytes=8)
    run_traffic(fval, pairs_m, nbytes=8)
    hops_min = sum(sw.pkts_forwarded for sw in fmin.switches)
    hops_val = sum(sw.pkts_forwarded for sw in fval.switches)
    assert hops_val > hops_min


def test_adaptive_routes_minimally_on_quiet_network():
    """With the minimal bias, an idle network never misroutes."""
    fabric = build(AdaptiveRouter)
    # one message at a time: no congestion anywhere
    for a, b in random_pairs(fabric, 20, seed=9):
        msg = fabric.send(a, b, 8)
        fabric.sim.run()
        assert msg.complete
    total_forwards = sum(sw.pkts_forwarded for sw in fabric.switches)
    assert total_forwards <= 4 * fabric.packets_delivered()


def test_adaptive_spreads_hot_minimal_path():
    """Under sustained load on one switch pair, some packets divert."""
    fabric = build(AdaptiveRouter)
    topo = fabric.topology
    # hammer a single local link: many nodes on switch 0 -> nodes on switch 1
    src_nodes = list(topo.nodes_on_switch(0))
    dst_nodes = list(topo.nodes_on_switch(1))
    msgs = []
    for _ in range(40):
        for s in src_nodes:
            for d in dst_nodes:
                msgs.append(fabric.send(s, d, 16 * KiB))
    fabric.sim.run()
    assert all(m.complete for m in msgs)
    # If everything went minimally, forwards == 2 per packet (switch 0 and
    # 1 only).  Diverted packets traverse a third switch.
    total_forwards = sum(sw.pkts_forwarded for sw in fabric.switches)
    assert total_forwards > 2 * fabric.packets_delivered()


def test_valiant_packets_clear_intermediate_flag():
    fabric = build(ValiantRouter)
    msgs = run_traffic(fabric, random_pairs(fabric, 50, seed=3), nbytes=8)
    assert all(m.complete for m in msgs)


def test_routing_bias_strength_controls_diversion():
    """A huge minimal bias turns the adaptive router into minimal-only."""
    stiff = build(AdaptiveRouter, min_bias_bytes=1e12)
    topo = stiff.topology
    msgs = []
    for s in topo.nodes_on_switch(0):
        for d in topo.nodes_on_switch(1):
            msgs.append(stiff.send(s, d, 64 * KiB))
    stiff.sim.run()
    total_forwards = sum(sw.pkts_forwarded for sw in stiff.switches)
    assert total_forwards == 2 * stiff.packets_delivered()


def test_two_group_system_has_no_global_misroute_pool():
    """With g=2 there is no intermediate group; routing must still work."""
    from repro.systems import crystal_mini

    fabric = crystal_mini().build()
    msgs = run_traffic(fabric, random_pairs(fabric, 60, seed=7))
    assert all(m.complete for m in msgs)


def test_router_determinism():
    def run_once():
        fabric = build(AdaptiveRouter)
        msgs = [fabric.send(a, b, 4 * KiB) for a, b in random_pairs(fabric, 60, seed=2)]
        fabric.sim.run()
        return [m.complete_time for m in msgs]

    assert run_once() == run_once()


@pytest.mark.parametrize("router_cls", [AdaptiveRouter, MinimalRouter, ValiantRouter])
@pytest.mark.parametrize("n", [0, -1])
def test_n_candidates_below_one_is_rejected_at_construction(router_cls, n):
    """With no candidate slot every decision would drop its packet."""
    topo = DragonflyTopology(DragonflyParams(1, 2, 3))
    with pytest.raises(ValueError, match=f"n_candidates must be >= 1, got {n}"):
        router_cls(topo, 0, n_candidates=n)
