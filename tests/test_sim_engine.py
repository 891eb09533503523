"""Unit tests for the DES engine core (repro.sim.engine)."""

import pytest

from repro.sim import PeriodicTick, Simulator, StopSimulation
from repro.sim.engine import Timeout


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30.0, order.append, "c")
    sim.schedule(10.0, order.append, "a")
    sim.schedule(20.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(50):
        sim.schedule(5.0, order.append, i)
    sim.run()
    assert order == list(range(50))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42.5]
    assert sim.now == 42.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=77.0)
    assert sim.now == 77.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize(
    "door",
    [
        "schedule",
        "schedule_at",
        "schedule_cancellable",
        "schedule_at_cancellable",
        "Timeout",
    ],
)
def test_nan_time_rejected_by_every_front_door(door):
    """`delay < 0` is False for NaN, so a NaN time used to slip into the
    queue, where it dispatched out of order or was silently dropped."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(ValueError, match="nan"):
        if door == "Timeout":
            Timeout(sim, float("nan"))
        else:
            getattr(sim, door)(float("nan"), lambda: None)
    assert sim.queue_length == 1


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: sim.schedule_at(20.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [20.0]


def test_nested_scheduling_during_run():
    sim = Simulator()
    order = []

    def outer():
        order.append(("outer", sim.now))
        sim.schedule(5.0, inner)

    def inner():
        order.append(("inner", sim.now))

    sim.schedule(10.0, outer)
    sim.run()
    assert order == [("outer", 10.0), ("inner", 15.0)]


def test_stop_simulation_halts_run():
    sim = Simulator()
    fired = []

    def stopper():
        fired.append("stop")
        raise StopSimulation()

    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, stopper)
    sim.schedule(3.0, fired.append, "never")
    sim.run()
    assert fired == ["a", "stop"]
    assert sim.queue_length == 1


def test_event_succeed_delivers_value_to_callbacks():
    sim = Simulator()
    got = []
    ev = sim.event()
    ev.add_callback(lambda e: got.append(e.value))
    sim.schedule(3.0, ev.succeed, 99)
    sim.run()
    assert got == [99]


def test_event_callback_added_after_trigger_still_fires():
    sim = Simulator()
    got = []
    ev = sim.event()
    ev.succeed("x")
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["x"]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_event_fail_propagates_exception_via_value():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert isinstance(ev.exception, RuntimeError)
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_timeout_event_carries_value():
    sim = Simulator()
    got = []
    ev = sim.timeout(7.0, value="tick")
    ev.add_callback(lambda e: got.append((sim.now, e.value)))
    sim.run()
    assert got == [(7.0, "tick")]


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 10


def test_pending_ticks_are_counted_and_released():
    sim = Simulator()
    fired = []
    a = PeriodicTick(sim, 100.0, lambda: fired.append(("a", sim.now)))
    b = PeriodicTick(sim, 30.0, lambda: fired.append(("b", sim.now)))
    a.start()
    a.start()  # idempotent
    b.start()
    assert sim.periodic_ticks == 2
    sim.schedule(50.0, lambda: None)
    sim.run()
    # b re-arms at 30 (the work is still queued) but not at 60 (only a's
    # tick is left); a then fires at 100 and stops too
    assert fired == [("b", 30.0), ("b", 60.0), ("a", 100.0)]
    assert sim.periodic_ticks == 0 and sim.queue_length == 0
    a.start()
    a.stop()
    a.stop()  # idempotent
    assert sim.periodic_ticks == 0 and sim.live_queue_length == 0


def test_a_raising_tick_releases_its_count():
    sim = Simulator()

    def boom():
        raise RuntimeError("sweep failed")

    PeriodicTick(sim, 10.0, boom).start()
    sim.schedule(100.0, lambda: None)
    with pytest.raises(RuntimeError, match="sweep failed"):
        sim.run()
    assert sim.periodic_ticks == 0
    with pytest.raises(ValueError, match="positive"):
        PeriodicTick(sim, 0.0, boom)
