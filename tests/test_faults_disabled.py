"""The fault machinery's disabled path must be invisible to the simulation.

Two bars, mirroring ``test_telemetry_disabled``:

* with no :class:`FaultInjector` attached, a run is *bit-identical* to
  the seed behaviour — same event count, same message latencies — even
  though every hot path now carries ``up`` / ``retrans`` checks;
* with an injector attached but an *empty* schedule, traffic behaviour
  (latencies, deliveries, marks) is unchanged — the end-to-end
  reliability timers add bookkeeping events, but on a healthy fabric
  every ack beats its RTO, so they never mutate traffic state.
"""

import random

from repro import faults  # noqa: F401  — imported, never attached
from repro.network.units import KiB
from repro.systems import malbec_mini


def _workload(fabric, n_messages=40, seed=7):
    """Deterministic mixed traffic; returns completed messages in order."""
    rng = random.Random(seed)
    n = fabric.topology.n_nodes
    msgs = []
    sent = 0
    while sent < n_messages:
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        msgs.append(fabric.send(a, b, rng.choice([8, 4 * KiB, 64 * KiB])))
        sent += 1
    fabric.sim.run()
    return msgs


def _fingerprint(fabric, msgs):
    return {
        "events": fabric.sim.events_processed,
        "now": fabric.sim.now,
        "latencies": [(m.submit_time, m.complete_time) for m in msgs],
        "delivered": fabric.packets_delivered(),
        "marks": sum(p.marks_set for sw in fabric.switches
                     for p in sw.all_ports()),
    }


def test_unfaulted_run_is_bit_identical():
    # Baseline fabric: faults package imported (top of file) but never
    # attached — the single-attribute-check path everywhere.
    plain = malbec_mini().build()
    base = _fingerprint(plain, _workload(plain))

    again = malbec_mini().build()
    msgs = _workload(again)
    assert _fingerprint(again, msgs) == base


def test_empty_injector_preserves_traffic_behaviour():
    plain = malbec_mini().build()
    base = _fingerprint(plain, _workload(plain))

    guarded = malbec_mini().build()
    injector = guarded.attach_faults()  # no schedule: reliability only
    msgs = _workload(guarded)
    got = _fingerprint(guarded, msgs)
    # identical traffic: latencies, deliveries, and marks all unchanged
    assert got["latencies"] == base["latencies"]
    assert got["delivered"] == base["delivered"]
    assert got["marks"] == base["marks"]
    # the reliability layer observed the run without ever intervening
    assert injector.retransmits() == 0
    assert injector.dup_pkts() == 0
    assert injector.giveups() == 0
    assert injector.outstanding() == 0
    # its timers are the only extra events
    assert got["events"] >= base["events"]
    guarded.assert_quiescent()


def test_no_fault_state_left_behind_by_healthy_run():
    fabric = malbec_mini().build()
    fabric.attach_faults()
    _workload(fabric)
    assert fabric.links_down() == []
    assert fabric.packets_dropped() == 0
    assert all(sw.up for sw in fabric.switches)
    assert all(p.up for sw in fabric.switches for p in sw.all_ports())
