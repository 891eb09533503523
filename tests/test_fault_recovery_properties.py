"""Property: any restored-by-end fault schedule drains and conserves.

The recovery invariant of repro.faults: whatever sequence of link/switch
failures, degradations and BER storms hits the fabric, as long as every
fault is undone by the end of the schedule, the fabric drains, every
message completes, and packet conservation
(injected == delivered + dropped-and-resent) holds exactly.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import systems
from repro.faults import FaultSchedule
from repro.network.dragonfly import DragonflyParams
from repro.network.units import KiB, US
from repro.systems import slingshot_config


@settings(max_examples=10, deadline=None)
@given(
    p=st.integers(1, 2),
    a=st.integers(2, 3),
    g=st.integers(2, 3),
    seed=st.integers(0, 100),
    n_faults=st.integers(1, 4),
)
def test_restored_schedule_drains_and_conserves(p, a, g, seed, n_faults):
    cfg = slingshot_config(
        DragonflyParams(p, a, g, links_per_pair=2), seed=seed
    )
    fabric = cfg.build()
    schedule = FaultSchedule.generate(
        fabric,
        seed=seed,
        n_faults=n_faults,
        t_start=5_000.0,
        t_end=400_000.0,
        switch_faults=seed % 2,
    )
    assert schedule.ends_restored
    injector = fabric.attach_faults(
        schedule, base_rto_ns=100_000.0, max_rto_ns=400_000.0
    )
    rng = random.Random(seed)
    nn = fabric.topology.n_nodes
    msgs = []
    while len(msgs) < 10:
        src, dst = rng.randrange(nn), rng.randrange(nn)
        if src == dst:
            continue
        msgs.append(fabric.send(src, dst, rng.choice([8, 5000, 20_000])))
    fabric.sim.run()

    assert all(m.complete for m in msgs)
    fabric.assert_quiescent()
    assert (
        fabric.packets_injected()
        == fabric.packets_delivered() + fabric.packets_dropped()
    )
    assert injector.giveups() == 0
    assert injector.outstanding() == 0
    assert fabric.links_down() == []
    assert all(sw.up for sw in fabric.switches)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 100))
def test_host_link_outage_heals(seed):
    """Even the victim's own injection wire going down only delays it."""
    cfg = slingshot_config(
        DragonflyParams(2, 2, 2, links_per_pair=1), seed=seed
    )
    fabric = cfg.build()
    rng = random.Random(seed)
    node = rng.randrange(fabric.topology.n_nodes)
    from repro.faults import link_fail, link_recover

    fabric.attach_faults(
        FaultSchedule(
            [link_fail(10_000.0, ("host", node)),
             link_recover(600_000.0, ("host", node))]
        ),
        base_rto_ns=100_000.0,
        max_rto_ns=400_000.0,
    )
    peer = (node + fabric.config.params.hosts_per_switch) % fabric.topology.n_nodes
    out = fabric.send(node, peer, 20_000)
    back = fabric.send(peer, node, 20_000)
    fabric.sim.run()
    assert out.complete and back.complete
    fabric.assert_quiescent()


@settings(max_examples=5, deadline=None)
@given(
    system=st.sampled_from(["malbec_mini", "shandy_mini", "crystal_mini"]),
    seed=st.integers(0, 100),
)
# A dead switch kept a link that restore_link brought back up ...
@example(system="malbec_mini", seed=2)
@example(system="malbec_mini", seed=3)
@example(system="shandy_mini", seed=1)
@example(system="crystal_mini", seed=3)
# ... and a switch's recovery brought up a link whose own failure lasted.
@example(system="malbec_mini", seed=5)
def test_audited_generated_storm_is_clean_and_lossless(system, seed):
    """Overlapping link and switch faults keep every invariant, the
    liveness rule included, and lose nothing."""
    fabric = getattr(systems, system)().build()
    schedule = FaultSchedule.generate(
        fabric, seed=seed, n_faults=6, switch_faults=1,
        t_start=5 * US, t_end=400 * US,
    )
    injector = fabric.attach_faults(
        schedule, base_rto_ns=100_000.0, max_rto_ns=400_000.0
    )
    auditor = fabric.attach_auditor()  # raises on the first violation
    rng = random.Random(seed)
    nn = fabric.topology.n_nodes
    msgs = []
    for _ in range(300):
        src, dst = rng.randrange(nn), rng.randrange(nn - 1)
        if dst >= src:
            dst += 1
        fabric.sim.schedule_at(
            rng.uniform(0.0, 400 * US),
            lambda s=src, d=dst: msgs.append(fabric.send(s, d, 16 * KiB)),
        )
    fabric.sim.run()

    auditor.assert_clean()
    assert len(msgs) == 300 and all(m.complete for m in msgs)
    fabric.assert_quiescent()
    assert injector.giveups() == 0
    assert fabric.links_down() == []


class ImpairmentReplay:
    """Injector probe: after every fault event, each link's ports must run
    at the bandwidth and frame error rate that the link's own degrade,
    BER and recover events imply.  It replays those events itself from
    the as-built port values, without reading ``LinkRef``'s record."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.built = {
            key: [(p.bandwidth, p.error_rate) for p in ref.ports]
            for key, ref in fabric.links.items()
        }
        self.factor = {}
        self.rate = {}
        self.events = 0
        self.wrong = []

    def fault(self, injector, ev):
        if ev.action == "link_degrade":
            self.factor[ev.target] = ev.value
        elif ev.action == "link_error":
            self.rate[ev.target] = ev.value
        elif ev.action == "link_recover":
            self.factor.pop(ev.target, None)
            self.rate.pop(ev.target, None)
        self.events += 1
        for key, ref in self.fabric.links.items():
            for port, (bandwidth, rate) in zip(ref.ports, self.built[key]):
                want = (bandwidth * self.factor.get(key, 1.0),
                        self.rate.get(key, rate))
                got = (port.bandwidth, port.error_rate)
                if got != want:
                    self.wrong.append((ev, port.name, got, want))


@settings(max_examples=15, deadline=None)
@given(
    system=st.sampled_from(["malbec_mini", "shandy_mini", "crystal_mini"]),
    seed=st.integers(0, 10_000),
)
# A switch's recovery ended a degradation or BER storm still in progress
# on one of its links.
@example(system="malbec_mini", seed=8)
@example(system="malbec_mini", seed=15)
@example(system="malbec_mini", seed=16)
@example(system="shandy_mini", seed=11)
@example(system="shandy_mini", seed=15)
@example(system="crystal_mini", seed=4)
@example(system="crystal_mini", seed=11)
def test_every_link_impairment_follows_its_own_schedule(system, seed):
    """Overlapping link and switch faults: only a link's own recovery ends
    its degradation or BER storm."""
    fabric = getattr(systems, system)().build()
    schedule = FaultSchedule.generate(
        fabric, seed=seed, n_faults=6, switch_faults=1,
        t_start=5 * US, t_end=400 * US,
    )
    injector = fabric.attach_faults(schedule)
    replay = injector.probe = ImpairmentReplay(fabric)
    fabric.sim.run()
    assert replay.events == len(schedule)
    assert replay.wrong == []
