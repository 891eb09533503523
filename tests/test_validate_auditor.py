"""Tests for the runtime invariant auditor (repro.validate.invariants).

The load-bearing tests here are *mutation* tests: deliberately corrupt
one layer's view of a shared quantity mid-run and assert the auditor
raises a structured violation naming the right invariant and entity.  A
checker that passes clean runs but misses planted corruption is
decorative; these tests are what make the auditor's silence meaningful.
"""

import hashlib

import pytest

from repro.network.units import KiB
from repro.systems import malbec_mini
from repro.validate import (
    InvariantAuditor,
    InvariantViolation,
    bisection_scenario,
    default_checkers,
)
from repro.validate.invariants import InvariantChecker


def _small_traffic(fabric, n_msgs=8, nbytes=64 * KiB):
    n = len(fabric.nics)
    for i in range(n_msgs):
        fabric.send(i % n, (i + n // 2) % n, nbytes)


# -- clean runs ---------------------------------------------------------------


def test_audited_bisection_run_is_clean():
    fabric = bisection_scenario("malbec")()
    auditor = fabric.attach_auditor()
    fabric.sim.run()
    auditor.assert_clean()
    assert auditor.sweeps > 0
    assert auditor.violations == []
    fabric.assert_quiescent()


def test_audited_run_with_faults_is_clean():
    from repro.faults import FaultSchedule, link_fail, link_recover

    fabric = malbec_mini().build()
    schedule = FaultSchedule(
        [
            link_fail(10_000.0, ("global", 0, 1, 0)),
            link_recover(60_000.0, ("global", 0, 1, 0)),
        ]
    )
    fabric.attach_faults(schedule)
    auditor = fabric.attach_auditor()
    _small_traffic(fabric, n_msgs=16)
    fabric.sim.run()
    auditor.assert_clean()
    # the fault hook forces an immediate sweep at each fault tick
    assert auditor.sweeps >= 2


def test_auditor_does_not_change_results():
    # An audited run must deliver the same packets with the same latency
    # distribution as an unaudited one: auditing observes, never steers.
    def run(audit):
        fabric = malbec_mini().build()
        lat = []
        n = len(fabric.nics)
        for i in range(n):
            fabric.send(
                i,
                (i + n // 2) % n,
                32 * KiB,
                on_complete=lambda m: lat.append(
                    m.complete_time - m.submit_time
                ),
            )
        if audit:
            fabric.attach_auditor()
        fabric.sim.run()
        digest = hashlib.sha256()
        for v in lat:
            digest.update(repr(v).encode())
        return len(lat), digest.hexdigest()

    assert run(audit=False) == run(audit=True)


def test_double_attach_rejected():
    fabric = malbec_mini().build()
    fabric.attach_auditor()
    with pytest.raises(RuntimeError):
        InvariantAuditor(fabric)


def test_bad_sweep_interval_rejected():
    fabric = malbec_mini().build()
    with pytest.raises(ValueError):
        fabric.attach_auditor(sweep_interval_ns=0.0)


# -- mutation tests: each planted corruption must be caught -------------------


def _catch(fabric):
    with pytest.raises(InvariantViolation) as exc_info:
        fabric.sim.run()
    return exc_info.value


def test_credit_counter_corruption_is_caught():
    fabric = malbec_mini().build()
    fabric.attach_auditor(sweep_interval_ns=2_000.0)
    _small_traffic(fabric)
    port = fabric.switches[0].all_ports()[0]

    def corrupt():
        port.credits[0]._in_use += 512.0

    fabric.sim.schedule(5_000.0, corrupt)
    v = _catch(fabric)
    assert v.invariant == "credit-conservation"
    assert port.name in v.entity
    assert v.tick >= 5_000.0
    assert "in_use_maintained" in v.snapshot


def test_delivery_counter_corruption_is_caught():
    fabric = malbec_mini().build()
    fabric.attach_auditor(sweep_interval_ns=2_000.0)
    _small_traffic(fabric)

    def corrupt():
        fabric.nics[0].pkts_delivered += 1000  # delivered > injected

    fabric.sim.schedule(5_000.0, corrupt)
    v = _catch(fabric)
    assert v.invariant == "packet-conservation"
    assert v.entity == "fabric"
    assert v.snapshot["delivered"] + v.snapshot["dropped"] > v.snapshot["injected"]


def test_monotonic_counter_regression_is_caught():
    fabric = malbec_mini().build()
    fabric.attach_auditor(sweep_interval_ns=2_000.0)
    _small_traffic(fabric)

    def corrupt():
        fabric.nics[0].pkts_injected = max(
            0, fabric.nics[0].pkts_injected - 2
        )

    fabric.sim.schedule(9_000.0, corrupt)
    v = _catch(fabric)
    assert v.invariant == "packet-conservation"
    assert "backwards" in v.detail or "accounted" in v.detail


def test_backlog_corruption_is_caught():
    fabric = malbec_mini().build()
    fabric.attach_auditor(sweep_interval_ns=2_000.0)
    _small_traffic(fabric)
    port = fabric.switches[0].all_ports()[0]

    def corrupt():
        port.backlog -= 10_000.0

    fabric.sim.schedule(5_000.0, corrupt)
    v = _catch(fabric)
    assert v.invariant == "occupancy"
    assert port.name in v.entity


def test_stale_routing_table_is_caught():
    # A link dies but the router's live tables stay current, as they would
    # after a fault-control primitive that forgot its epoch bump: the
    # tables still route onto a dead port, which RoutingHealthChecker
    # exists to catch.
    fabric = malbec_mini().build()
    fabric.attach_auditor(sweep_interval_ns=2_000.0)
    _small_traffic(fabric)

    def corrupt():
        tabled = {
            p for sw in fabric.switches for ent in sw.rt_global.values()
            for p in ent[0]
        }
        key = next(
            k for k, ref in sorted(fabric.links.items())
            if tabled & set(ref.ports)
        )
        fabric.fail_link(key)
        fabric.router._epoch = fabric.topology.health_epoch

    fabric.sim.schedule(5_000.0, corrupt)
    v = _catch(fabric)
    assert v.invariant == "routing-health"
    assert v.entity.startswith("switch")
    assert "dead ports" in v.detail


def test_final_check_catches_unbalanced_drain():
    fabric = malbec_mini().build()
    auditor = fabric.attach_auditor(raise_on_violation=False)
    _small_traffic(fabric, n_msgs=4)
    fabric.sim.run()
    fabric.nics[0].pkts_delivered -= 1  # lose one delivery post-hoc
    violations = auditor.final_check()
    assert any(
        v.invariant == "packet-conservation" and "balance" in v.detail
        for v in violations
    )


def test_raise_on_violation_false_collects():
    fabric = malbec_mini().build()
    auditor = fabric.attach_auditor(
        sweep_interval_ns=2_000.0, raise_on_violation=False
    )
    _small_traffic(fabric)
    port = fabric.switches[0].all_ports()[0]
    fabric.sim.schedule(5_000.0, lambda: port.credits[0].__setattr__(
        "_in_use", port.credits[0]._in_use + 64.0))
    fabric.sim.run()  # must NOT raise
    assert len(auditor.violations) >= 1
    assert all(isinstance(v, InvariantViolation) for v in auditor.violations)
    with pytest.raises(InvariantViolation):
        auditor.assert_clean()


def test_violation_renders_entity_tick_and_snapshot():
    v = InvariantViolation(
        "credit-conservation",
        "port L0->1 tc0",
        1234.5,
        "drift detected",
        {"maintained": 10.0, "recomputed": 9.0},
    )
    text = v.render()
    assert "credit-conservation" in text
    assert "port L0->1 tc0" in text
    assert "1234.5" in text
    assert "maintained" in text
    assert isinstance(v, AssertionError)  # fails loudly under any harness


def test_default_checkers_are_fresh_instances():
    a, b = default_checkers(), default_checkers()
    assert {c.name for c in a} == {
        "credit-conservation",
        "occupancy",
        "packet-conservation",
        "timestamps",
        "routing-health",
    }
    assert not any(x is y for x in a for y in b)


# -- the credit wait rule -----------------------------------------------------


def _aries_incast(nbytes=16 * KiB):
    """``crystal_mini`` (switch-shared Aries buffers): a bisection plus
    every node sending to node 0, so ports block on shared pools.  The
    incast's uneven sizes leave short last packets, so one release can
    unblock several heads."""
    from repro.systems import crystal_mini

    fabric = crystal_mini().build()
    n = fabric.topology.n_nodes
    for i in range(n):
        fabric.send(i, (i + n // 2) % n, nbytes)
    for i in range(1, n):
        fabric.send(i, 0, nbytes + 300 * (i % 7))
    return fabric


def _waits(fabric):
    """(gated waiters, armed single-class ports) right now."""
    ports = [port for _, port in fabric.all_ports()]
    pools = {id(p._pool0): p._pool0 for p in ports}.values()
    gated = sum(h is not None for pool in pools for h in pool._waiters.values())
    armed = sum(p._retry_armed and p._single_tc for p in ports)
    return gated, armed


def _raise(invariant, entity, detail, snapshot=None):
    raise InvariantViolation(invariant, entity, 0.0, detail, snapshot)


def test_credit_wait_rule_holds_with_gated_waiters():
    """Swept from outside (no probe), every gated waiter is an armed
    single-class port blocked on its head, through a whole Aries
    incast."""
    from repro.validate import CreditConservationChecker

    fabric = _aries_incast()
    checker = CreditConservationChecker()
    seen = []

    def sweep():
        seen.append(_waits(fabric))
        checker.sweep(fabric, _raise)
        if fabric.sim.live_queue_length:
            fabric.sim.schedule(1_000.0, sweep)

    fabric.sim.schedule(1_000.0, sweep)
    fabric.sim.run()
    fabric.assert_quiescent()
    assert sum(g for g, _ in seen) >= 100, seen
    assert sum(a for _, a in seen) >= 100, seen


class _WaitSampler(InvariantChecker):
    """Records :func:`_waits` on every auditor sweep."""

    name = "wait-sampler"

    def __init__(self):
        self.samples = []

    def sweep(self, fabric, report):
        self.samples.append(_waits(fabric))


def test_audited_aries_incast_is_clean():
    """The auditor's checkers record no stalls, so an audited port still
    waits gated: every blocked port the sweeps see holds a gated entry,
    and the audit covers the production credit path."""
    fabric = _aries_incast()
    sampler = _WaitSampler()
    auditor = fabric.attach_auditor(
        sweep_interval_ns=1_000.0, checkers=default_checkers() + [sampler]
    )
    fabric.sim.run()
    auditor.assert_clean()
    gated = sum(g for g, _ in sampler.samples)
    armed = sum(a for _, a in sampler.samples)
    assert gated == armed > 0, (gated, armed)


def _blocked_gated_port(fabric):
    fabric.sim.run(until=20_000.0)
    for _, port in fabric.all_ports():
        if port._retry_armed and port._single_tc:
            # no probe: the port handed its pool the head it waits on
            assert port._pool0._waiters[port._retry] is port._q0[0]
            return port
    raise AssertionError("no blocked single-class port")


def test_gated_waiter_with_a_fitting_head_is_caught():
    from repro.network.packet import Packet
    from repro.validate import CreditConservationChecker

    fabric = _aries_incast()
    port = _blocked_gated_port(fabric)
    small = Packet(0, 1, 2)  # 64B: fits the VC-0 reserve of any pool
    small.vc = 0
    port._pool0.notify_on_release(small, port._retry)
    with pytest.raises(InvariantViolation) as exc_info:
        CreditConservationChecker().sweep(fabric, _raise)
    assert exc_info.value.invariant == "credit-conservation"
    assert "gated waiter" in exc_info.value.detail


def test_armed_port_missing_from_its_pool_is_caught():
    fabric = _aries_incast()
    port = _blocked_gated_port(fabric)
    auditor = fabric.attach_auditor()  # probes every port, records no stalls
    del port._pool0._waiters[port._retry]
    v = _catch(fabric)
    assert v.invariant == "credit-conservation"
    assert port.name in v.entity
    assert v.snapshot["registered"] is False
    auditor.detach()
