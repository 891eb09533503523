"""Fault injection and end-to-end recovery (repro.faults).

Covers the ISSUE acceptance scenarios: a link failed and recovered
mid-flight loses no traffic; whole-switch failure heals the same way;
bandwidth degradation and BER storms are lossless by construction
(slower, not lossy); and with k of the parallel global links between two
groups failed, all traffic still completes with roughly proportionally
degraded throughput.
"""

import random
from types import SimpleNamespace

import pytest

from repro.faults import (
    EndToEndReliability,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    chaos_run,
    degradation_curve,
    link_degrade,
    link_error,
    link_fail,
    link_recover,
    switch_fail,
    switch_recover,
)
from repro.network.dragonfly import DragonflyParams
from repro.network.units import KiB
from repro.systems import slingshot_config


def small_config(p=2, a=2, g=3, links=2, seed=0):
    return slingshot_config(
        DragonflyParams(p, a, g, links_per_pair=links), seed=seed
    )


def cross_group_traffic(fabric, gi=0, gj=1, nbytes=64 * KiB):
    """Every node of group *gi* streams to its counterpart in *gj*."""
    srcs = list(fabric.topology.nodes_in_group(gi))
    dsts = list(fabric.topology.nodes_in_group(gj))
    return [fabric.send(s, d, nbytes) for s, d in zip(srcs, dsts)]


def random_traffic(fabric, n=30, seed=3, nbytes=(8, 4 * KiB, 64 * KiB)):
    rng = random.Random(seed)
    nn = fabric.topology.n_nodes
    msgs = []
    while len(msgs) < n:
        a, b = rng.randrange(nn), rng.randrange(nn)
        if a == b:
            continue
        msgs.append(fabric.send(a, b, rng.choice(nbytes)))
    return msgs


# -- mid-flight fail-stop + recovery ------------------------------------------


def test_link_fail_recover_midflight_is_lossless():
    """Both parallel global links between groups 0 and 1 die mid-transfer
    and come back later; every packet is eventually delivered.

    With only two groups there is no Valiant detour, so the outage is a
    true partition: in-flight packets are dropped (no route) and must be
    re-sent end-to-end once the links heal."""
    fabric = small_config(g=2).build()
    keys = [("global", 0, 1, 0), ("global", 0, 1, 1)]
    schedule = FaultSchedule(
        [link_fail(10_000.0, k) for k in keys]
        + [link_recover(1_500_000.0, k) for k in keys]
    )
    injector = fabric.attach_faults(
        schedule, base_rto_ns=100_000.0, max_rto_ns=400_000.0
    )
    msgs = cross_group_traffic(fabric, nbytes=256 * KiB)
    fabric.sim.run()
    assert all(m.complete for m in msgs)
    fabric.assert_quiescent()
    # the outage actually bit: packets were dropped and re-sent
    assert fabric.packets_dropped() > 0
    assert injector.retransmits() > 0
    assert injector.giveups() == 0
    # and the fabric healed completely
    assert fabric.links_down() == []


def test_switch_fail_recover_is_lossless():
    fabric = small_config().build()
    schedule = FaultSchedule(
        [switch_fail(30_000.0, 1), switch_recover(1_200_000.0, 1)]
    )
    injector = fabric.attach_faults(
        schedule, base_rto_ns=100_000.0, max_rto_ns=400_000.0
    )
    msgs = random_traffic(fabric, n=30)
    fabric.sim.run()
    assert all(m.complete for m in msgs)
    fabric.assert_quiescent()
    assert injector.giveups() == 0
    assert fabric.switches[1].up
    assert fabric.links_down() == []


def _switch_and_link():
    """A fabric, one of its switches and a global link attached to it."""
    fabric = small_config().build()
    key = next(k for k in sorted(fabric.links) if k[0] == "global")
    return fabric, fabric.links[key].ports[0].owner.id, key


def test_link_restored_under_a_dead_switch_stays_down_until_the_switch():
    # A link is up iff its own failure is over and every switch it
    # touches is up: ending the link's own failure is not enough.
    fabric, s, key = _switch_and_link()
    fabric.fail_switch(s)
    fabric.fail_link(key)
    fabric.restore_link(key)
    assert key in fabric.links_down()
    fabric.restore_switch(s)
    assert key not in fabric.links_down()
    assert fabric.links_down() == []


def test_switch_recovery_keeps_a_link_down_while_its_own_failure_lasts():
    fabric, s, key = _switch_and_link()
    fabric.fail_switch(s)
    fabric.fail_link(key)
    fabric.restore_switch(s)
    assert fabric.links_down() == [key]
    fabric.restore_link(key)
    assert fabric.links_down() == []


def test_switch_recovery_keeps_a_link_degraded_until_its_own_recovery():
    # A degradation is the link's own impairment: a switch failing and
    # recovering underneath it neither ends nor resets it.
    fabric, s, key = _switch_and_link()
    ref = fabric.links[key]
    fabric.degrade_link(key, 0.5)
    fabric.fail_switch(s)
    fabric.restore_switch(s)
    assert fabric.links_down() == []
    for port, bw in zip(ref.ports, ref.base_bandwidths):
        assert port.bandwidth == bw * 0.5
    fabric.restore_link(key)
    for port, bw in zip(ref.ports, ref.base_bandwidths):
        assert port.bandwidth == bw


def test_switch_recovery_keeps_a_ber_storm_until_its_own_recovery():
    fabric, s, key = _switch_and_link()
    ref = fabric.links[key]
    fabric.set_link_error_rate(key, 0.05)
    fabric.fail_switch(s)
    fabric.restore_switch(s)
    assert fabric.links_down() == []
    assert all(port.error_rate == 0.05 for port in ref.ports)
    fabric.restore_link(key)
    base = fabric.config.global_link.frame_error_rate
    assert all(port.error_rate == base for port in ref.ports)


def test_flapping_link_is_lossless():
    fabric = small_config().build()
    schedule = FaultSchedule.flap(
        ("global", 0, 1, 0), t_start=10_000.0, t_end=800_000.0,
        period=100_000.0, duty_down=0.5,
    )
    assert schedule.ends_restored
    injector = fabric.attach_faults(
        schedule, base_rto_ns=80_000.0, max_rto_ns=320_000.0
    )
    msgs = cross_group_traffic(fabric)
    fabric.sim.run()
    assert all(m.complete for m in msgs)
    fabric.assert_quiescent()
    assert injector.giveups() == 0


# -- degradation: slower, never lossy -----------------------------------------


def test_degraded_link_slows_traffic_without_loss():
    cfg = small_config(g=2, links=1)

    healthy = cfg.build()
    cross_group_traffic(healthy)
    healthy.sim.run()
    t_healthy = healthy.sim.now

    slow = cfg.build()
    slow.attach_faults(
        FaultSchedule([link_degrade(0.0, ("global", 0, 1, 0), 0.1)])
    )
    msgs = cross_group_traffic(slow)
    slow.sim.run()
    assert all(m.complete for m in msgs)
    # degradation is pure slowdown: no fail-stop, no drops, no retries
    assert slow.packets_dropped() == 0
    latest = max(m.complete_time for m in msgs)
    assert latest > t_healthy


def test_ber_storm_is_absorbed_by_llr():
    """A raised frame error rate costs link-local replays, never loss."""
    fabric = small_config(g=2, links=1).build()
    key = ("global", 0, 1, 0)
    injector = fabric.attach_faults(
        FaultSchedule(
            [link_error(0.0, key, 0.3), link_recover(500_000.0, key)]
        )
    )
    msgs = cross_group_traffic(fabric)
    fabric.sim.run()
    assert all(m.complete for m in msgs)
    fabric.assert_quiescent()
    replays = sum(
        p.replays for sw in fabric.switches for p in sw.all_ports()
    )
    assert replays > 0
    assert fabric.packets_dropped() == 0
    assert injector.retransmits() == 0  # LLR handled it below e2e
    # the storm ended: error rate restored to the spec's base rate
    for port in fabric.links[key].ports:
        assert port.error_rate == fabric.config.global_link.frame_error_rate


def test_degradation_curve_proportional_and_lossless():
    """k < links_per_pair failed global links: everything still completes,
    throughput falls roughly monotonically with surviving links."""
    cfg = slingshot_config(DragonflyParams(4, 2, 2, links_per_pair=4), seed=0)
    rows = degradation_curve(cfg)
    assert [r["k_failed"] for r in rows] == [0, 1, 2, 3]
    for r in rows:
        assert r["messages_completed"] == r["messages_sent"]
        assert r["goodput_gbps"] > 0
    goodputs = [r["goodput_gbps"] for r in rows]
    # monotone non-increasing (5% tolerance for queueing noise) ...
    for a, b in zip(goodputs, goodputs[1:]):
        assert b <= a * 1.05
    # ... and losing 3 of 4 links costs real bandwidth
    assert goodputs[-1] < 0.7 * goodputs[0]


def test_permanent_partial_failure_still_delivers_everything():
    """Failed-forever links are fine as long as siblings survive."""
    cfg = slingshot_config(DragonflyParams(4, 2, 2, links_per_pair=4), seed=0)
    fabric = cfg.build()
    keys = [("global", 0, 1, 0), ("global", 0, 1, 2)]
    fabric.attach_faults(FaultSchedule([link_fail(0.0, k) for k in keys]))
    msgs = cross_group_traffic(fabric)
    fabric.sim.run()
    assert all(m.complete for m in msgs)
    assert fabric.links_down() == sorted(keys)


# -- assert_quiescent diagnostics (stuck-packet report) -----------------------


def test_assert_quiescent_reports_where_packets_are_stuck():
    fabric = small_config().build()
    fabric.fail_link(("host", 0))  # node 0's wire, down forever
    fabric.send(0, fabric.topology.n_nodes - 1, 8)
    fabric.sim.run()
    with pytest.raises(AssertionError) as err:
        fabric.assert_quiescent()
    report = str(err.value)
    assert "packet loss" in report
    assert "stuck packets" in report
    assert "nic 0" in report  # pinpoints the parked injection queue
    assert "oldest pkt" in report


# -- schedule & event plumbing ------------------------------------------------


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, "link_fail", ("host", 0))
    with pytest.raises(ValueError):
        FaultEvent(0.0, "meteor_strike", ("host", 0))
    with pytest.raises(ValueError):
        link_fail(0.0, ("warp", 0))
    with pytest.raises(ValueError):
        link_degrade(0.0, ("host", 0), 0.0)
    with pytest.raises(ValueError):
        link_error(0.0, ("host", 0), 1.0)
    with pytest.raises(ValueError):
        FaultEvent(0.0, "switch_fail", ("host", 0))  # wants a switch id


@pytest.mark.parametrize("spread_ns", [-1.0, float("nan")])
def test_chaos_run_rejects_a_bad_spread(spread_ns):
    """Each arrival schedules the next, and the earliest goes through the
    checked ``schedule_at``: a spread that puts it in the past, or NaN,
    raises instead of running the clock backwards."""
    with pytest.raises(ValueError):
        chaos_run(small_config(), messages=5, spread_ns=spread_ns)


def test_rto_caps_once_backoff_overflows():
    """A wedged run retransmits until the attempt count is huge; at the
    default backoff of 2, ``2.0 ** 1024`` overflows a float."""
    rel = EndToEndReliability(SimpleNamespace(sim=None))
    assert rel.rto(0) == rel.base_rto_ns
    assert rel.rto(3) == rel.max_rto_ns
    assert rel.rto(5_000) == rel.max_rto_ns


def test_schedule_generate_is_deterministic_and_restored():
    fabric = small_config().build()
    s1 = FaultSchedule.generate(fabric, seed=5, n_faults=4, switch_faults=1)
    s2 = FaultSchedule.generate(fabric, seed=5, n_faults=4, switch_faults=1)
    assert s1.events == s2.events
    assert s1.ends_restored
    assert len(s1) >= 8  # every fault comes with its recovery
    s3 = FaultSchedule.generate(fabric, seed=6, n_faults=4)
    assert s3.events != s1.events
    assert not FaultSchedule([link_fail(0.0, ("host", 0))]).ends_restored


def test_unknown_link_key_raises():
    fabric = small_config().build()
    with pytest.raises(KeyError):
        fabric.fail_link(("global", 0, 99, 0))
    with pytest.raises(ValueError):
        fabric.degrade_link(("host", 0), 0.0)


def test_injector_attaches_once():
    fabric = small_config().build()
    fabric.attach_faults()
    with pytest.raises(RuntimeError):
        FaultInjector(fabric)


def test_link_directory_covers_the_whole_fabric():
    cfg = small_config(p=2, a=2, g=3, links=2)
    fabric = cfg.build()
    topo = fabric.topology
    n_local = len(topo.all_local_links())
    n_global = len(topo.all_global_links())
    kinds = [ref.kind for ref in fabric.links.values()]
    assert kinds.count("local") == n_local
    assert kinds.count("global") == n_global
    assert kinds.count("host") == topo.n_nodes
    # global keys match the topology's pair-link indexing
    for (gi, gj) in [(0, 1), (0, 2), (1, 2)]:
        for idx, (si, sj) in enumerate(topo.group_pair_links(gi, gj)):
            ref = fabric.links[("global", gi, gj, idx)]
            assert {ref.ports[0].owner.id, ref.ports[1].owner.id} == {si, sj}
