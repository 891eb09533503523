"""Per-operation traffic classes (§II-E's software scenario).

The paper: "MPI could assign latency-sensitive collective operations
such as MPI_Barrier and MPI_Allreduce to high-priority and
low-bandwidth traffic classes, and bulk point-to-point operations to
higher bandwidth and lower priority classes."
"""

import pytest

from repro.core.traffic_classes import TrafficClass
from repro.mpi import MpiWorld
from repro.mpi.comm import TAG_TO_OP
from repro.network.units import KiB, MS
from repro.probe import Probe
from repro.systems import malbec_mini

CLASSES = [
    TrafficClass("bulk", priority=0),
    TrafficClass("latency", priority=1, max_share=0.3),
]


class TcsOnWire(Probe):
    """Collects the traffic class of every packet a port serves."""

    def __init__(self):
        self.tcs = set()

    def arbitrated(self, port, pkt):
        self.tcs.add(pkt.tc)


def build_world(tc_map=None):
    fabric = malbec_mini(classes=CLASSES).build()
    world = MpiWorld(fabric, nodes=list(range(8)), tc=0, tc_map=tc_map)
    return fabric, world


def test_tag_table_covers_all_collectives():
    ops = set(TAG_TO_OP.values())
    assert {
        "barrier",
        "allreduce",
        "alltoall",
        "bcast",
        "allgather",
        "reduce",
        "scatter",
        "gather",
        "reduce_scatter",
        "ring_allreduce",
        "p2p",
    } <= ops


def test_tc_map_validation():
    fabric = malbec_mini(classes=CLASSES).build()
    with pytest.raises(ValueError):
        MpiWorld(fabric, nodes=[0, 1], tc_map={"allreduce": 7})


def test_collective_packets_ride_their_mapped_class():
    fabric, world = build_world(tc_map={"allreduce": 1, "barrier": 1})
    tcs_on_wire = TcsOnWire()
    for nic in fabric.nics[:8]:
        nic.out_port.probe = tcs_on_wire

    def main(rank):
        yield from rank.allreduce(8)  # -> TC1
        if rank.rank == 0:
            yield rank.send(1, 4 * KiB, tag=9)  # p2p -> TC0
        elif rank.rank == 1:
            yield rank.recv(0, tag=9)

    world.spawn(main)
    fabric.sim.run()
    assert tcs_on_wire.tcs == {0, 1}


def test_unmapped_operations_use_default_class():
    fabric, world = build_world(tc_map={"barrier": 1})
    tcs_on_wire = TcsOnWire()
    for nic in fabric.nics[:8]:
        nic.out_port.probe = tcs_on_wire

    def main(rank):
        yield from rank.allreduce(8)  # unmapped -> default TC0

    world.spawn(main)
    fabric.sim.run()
    assert tcs_on_wire.tcs == {0}


def test_mapped_allreduce_protected_from_bulk_job():
    """The paper's scenario end to end: an allreduce in a priority class
    survives a same-world bulk alltoall storm better than in the shared
    class."""
    results = {}
    for mapped in (False, True):
        fabric = malbec_mini(classes=CLASSES).build()
        world = MpiWorld(
            fabric,
            nodes=list(range(0, 32, 2)),
            tc=0,
            tc_map={"allreduce": 1, "barrier": 1} if mapped else None,
        )
        bully = MpiWorld(fabric, nodes=list(range(1, 33, 2)), tc=0)
        times = []

        def bully_main(rank):
            while True:
                yield from rank.alltoall(64 * KiB)

        def victim_main(rank):
            yield 0.2 * MS  # let the storm build
            for _ in range(6):
                t0 = rank.sim.now
                yield from rank.allreduce(8)
                if rank.rank == 0:
                    times.append(rank.sim.now - t0)

        bully.spawn(bully_main)
        procs = world.spawn(victim_main)
        from repro.sim import AllOf, StopSimulation

        def _stop(_e):
            raise StopSimulation()

        AllOf(fabric.sim, [p.done_event for p in procs]).add_callback(_stop)
        fabric.sim.run(until=300 * MS)
        results[mapped] = sum(times) / len(times)
    assert results[True] <= results[False] * 1.05  # mapping never hurts