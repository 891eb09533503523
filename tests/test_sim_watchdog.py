"""In-sim watchdog: wedged simulations raise SimStall instead of hanging.

The watchdog is the in-process half of the fault-tolerant campaign
harness: ``max_events`` / ``max_sim_time_ns`` / ``wall_deadline_s``
guards bound a run, and a trip raises a *structured* ``SimStall``
carrying queue context plus — for a fabric — the quiescence snapshot
(stuck packets, deepest VOQ), so a supervisor can classify the stall.
Guards must also be *resumable* (the tripping event goes back on the
heap) and invisible when disarmed (the golden fingerprint test in
test_event_order_identity.py pins bit-identical unguarded runs).
"""

import time

import pytest

from repro.network.units import KiB
from repro.sim import SimStall, Simulator, default_watchdog
from repro.systems import malbec_mini


def _runaway(sim, stop_at=None):
    """Self-rescheduling tick: an event loop that never drains."""

    def tick():
        if stop_at is None or sim.now < stop_at:
            sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)


def test_max_events_trips():
    sim = Simulator()
    _runaway(sim)
    sim.watchdog(max_events=100)
    with pytest.raises(SimStall) as exc:
        sim.run()
    assert sim.events_processed == 100
    assert "event budget" in exc.value.reason
    assert exc.value.events_processed == 100
    assert exc.value.queue_length >= 1  # the tripping event went back


def test_max_sim_time_trips():
    sim = Simulator()
    _runaway(sim)
    sim.watchdog(max_sim_time_ns=50.0)
    with pytest.raises(SimStall) as exc:
        sim.run()
    assert sim.now <= 50.0
    assert "sim time" in exc.value.reason
    assert exc.value.next_event_ns is not None


def test_wall_deadline_trips():
    sim = Simulator()

    def slow_tick():
        time.sleep(0.001)
        sim.schedule(1.0, slow_tick)

    sim.schedule(0.0, slow_tick)
    sim.watchdog(wall_deadline_s=0.05)
    t0 = time.perf_counter()
    with pytest.raises(SimStall, match="wall-clock deadline"):
        sim.run()
    assert time.perf_counter() - t0 < 5.0


def test_stall_is_resumable():
    """The undispatched entry goes back on the heap: disarming (or
    widening) the watchdog and re-running continues exactly where the
    guarded run stopped."""
    sim = Simulator()
    hits = []
    for i in range(10):
        sim.schedule(float(i), hits.append, i)
    sim.watchdog(max_events=4)
    with pytest.raises(SimStall):
        sim.run()
    assert hits == [0, 1, 2, 3]
    sim.watchdog()  # disarm
    sim.run()
    assert hits == list(range(10))


def test_watchdog_allows_normal_completion():
    sim = Simulator()
    hits = []
    sim.schedule(5.0, hits.append, "a")
    sim.schedule(2.0, hits.append, "b")
    sim.watchdog(max_events=100, max_sim_time_ns=1e9, wall_deadline_s=30.0)
    sim.run()
    assert hits == ["b", "a"]


def test_watchdog_respects_until():
    sim = Simulator()
    _runaway(sim, stop_at=1e6)
    sim.watchdog(max_events=10_000)
    sim.run(until=50.0)
    assert sim.now == 50.0


def test_watchdog_event_budget_is_per_arm_not_per_run():
    """The budget counts events from the moment watchdog() armed it."""
    sim = Simulator()
    _runaway(sim)
    sim.watchdog(max_events=10)
    with pytest.raises(SimStall):
        sim.run()
    # re-arming grants a fresh budget
    sim.watchdog(max_events=10)
    with pytest.raises(SimStall):
        sim.run()
    assert sim.events_processed == 20


def test_watchdog_rejects_nonpositive_limits():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.watchdog(max_events=0)
    with pytest.raises(ValueError):
        sim.watchdog(wall_deadline_s=-1.0)


def _arm_default(**limits):
    with default_watchdog(**limits):
        pass


@pytest.mark.parametrize("field", ["max_events", "max_sim_time_ns", "wall_deadline_s"])
@pytest.mark.parametrize(
    "arm",
    [lambda **kw: Simulator().watchdog(**kw), _arm_default],
    ids=["Simulator.watchdog", "default_watchdog"],
)
def test_watchdog_rejects_nan_limits_at_every_front_door(arm, field):
    # NaN compares false both ways, so a NaN guard would never trip
    with pytest.raises(ValueError, match=field):
        arm(**{field: float("nan")})


def test_default_watchdog_applies_to_new_simulators_only():
    before = Simulator()
    with default_watchdog(max_events=5):
        inside = Simulator()
        _runaway(inside)
        with pytest.raises(SimStall):
            inside.run()
        # simulators built before arming stay unguarded
        _runaway(before, stop_at=100.0)
        before.run()
    after = Simulator()
    _runaway(after, stop_at=100.0)
    after.run()  # default restored: no guard


def test_fabric_stall_carries_quiescence_diagnostics():
    """Satellite: SimStall reuses the faults-subsystem diagnostics —
    stuck packets, deepest VOQ — via fabric.quiescence_snapshot()."""
    fabric = malbec_mini().build()
    n = fabric.topology.n_nodes
    for i in range(n):
        fabric.send(i, (i + n // 2) % n, 64 * KiB)
    fabric.sim.watchdog(max_events=200)
    with pytest.raises(SimStall) as exc:
        fabric.sim.run()
    diag = exc.value.diagnostics
    assert diag is not None
    assert diag["injected"] > diag["delivered"]
    assert diag["stuck"], "mid-flight stall must report stuck packets"
    deepest = diag["deepest_voq"]
    assert deepest is not None and deepest["queued_pkts"] >= 1
    # structured entries carry the oldest packet per location
    oldest = diag["stuck"][0].get("oldest")
    assert oldest is None or {"pid", "src", "dst", "age_ns"} <= set(oldest)
    # plain data only: must survive a journal round trip
    import json

    json.dumps(exc.value.to_dict())
    # resumable: disarm, drain, and the fabric is conserved again
    fabric.sim.watchdog()
    fabric.sim.run()
    fabric.assert_quiescent()


def test_quiescence_snapshot_clean_after_drain():
    fabric = malbec_mini().build()
    fabric.send(0, 5, 4 * KiB)
    fabric.sim.run()
    snap = fabric.quiescence_snapshot()
    assert snap["stuck"] == []
    assert snap["deepest_voq"] is None
    assert snap["injected"] == snap["delivered"]


def test_watchdog_coexists_with_event_hook():
    """The determinism differ's event_hook still fires under guards."""
    sim = Simulator()
    seen = []
    sim.event_hook = lambda t, fn, args: seen.append(t)
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.watchdog(max_events=10)
    sim.run()
    assert seen == [1.0, 2.0]


def test_wall_deadline_checked_on_a_stride_not_per_event():
    """The wall-clock guard costs one perf_counter() per _WALL_STRIDE
    events, so a deadline that has already passed when run() starts must
    still raise — within the first stride, not per-event and not never."""
    from repro.sim.engine import _WALL_STRIDE

    sim = Simulator()
    fuel = [10 * _WALL_STRIDE]

    def chain():
        if fuel[0] > 0:
            fuel[0] -= 1
            sim.schedule(1.0, chain)

    sim.schedule(0.0, chain)
    # deadline so tight it is already exceeded at the first check
    sim.watchdog(wall_deadline_s=1e-9)
    time.sleep(0.002)
    with pytest.raises(SimStall, match="wall-clock deadline"):
        sim.run()
    # tripped at the first stride boundary: the guard may be up to
    # one stride late, never more (and never zero-cost-per-event)
    assert 0 < sim.events_processed <= _WALL_STRIDE
    # resumable: the tripping entry went back on the queue
    sim.watchdog()
    sim.run()
    assert sim.events_processed == 10 * _WALL_STRIDE + 1
