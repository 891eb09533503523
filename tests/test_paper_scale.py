"""Smoke tests at the paper's full system sizes.

The benches default to mini systems; these tests prove the full-size
configurations (`REPRO_SCALE=paper`) actually build and move traffic,
so the scale knob is not a paper promise.
"""

import gc

import pytest

from repro.network.units import KiB
from repro.systems import crystal_paper, malbec_mini, malbec_paper, shandy_paper


def test_fabric_build_stays_lean_per_port():
    """Per-port state must not pull in per-slice objects again.

    Every GC-tracked object a build adds is walked by each collector
    pass, and at paper scale there are thousands of ports.  A port, its
    queue, its buffer pool and their bound event handlers come to ~12
    tracked objects (amortizing switches, NICs and the router; a port
    with one uncapped class has no scheduler); one object per buffer
    slice, each with its own waiter queue and listener list, comes to
    ~37.
    """
    config = malbec_mini()
    gc.collect()
    before = len(gc.get_objects())
    fabric = config.build()
    gc.collect()
    added = len(gc.get_objects()) - before
    n_ports = sum(1 for _ in fabric.all_ports())
    assert n_ports == 300
    assert added <= 20 * n_ports, f"{added / n_ports:.1f} objects per port"


@pytest.mark.slow
def test_shandy_paper_builds_and_routes():
    fabric = shandy_paper().build()
    assert fabric.topology.n_nodes == 1024
    assert fabric.topology.n_switches == 128
    # one message per group pair direction, cross-checking gateway wiring
    msgs = []
    for g in range(8):
        src = next(iter(fabric.topology.nodes_in_group(g)))
        dst = next(iter(fabric.topology.nodes_in_group((g + 3) % 8)))
        msgs.append(fabric.send(src, dst, 16 * KiB))
    fabric.sim.run()
    assert all(m.complete for m in msgs)
    fabric.assert_quiescent()


@pytest.mark.slow
def test_crystal_paper_builds_and_routes():
    fabric = crystal_paper().build()
    assert fabric.topology.n_nodes == 768
    msgs = [fabric.send(0, 700, 16 * KiB), fabric.send(383, 384, 4 * KiB)]
    fabric.sim.run()
    assert all(m.complete for m in msgs)


@pytest.mark.slow
def test_malbec_paper_collective():
    from repro.mpi import MpiWorld

    fabric = malbec_paper().build()
    world = MpiWorld(fabric, nodes=list(range(0, 484, 8)))  # 61 ranks
    done = []

    def main(rank):
        yield from rank.allreduce(8)
        done.append(rank.rank)

    world.spawn(main)
    fabric.sim.run()
    assert len(done) == world.size
    fabric.assert_quiescent()
