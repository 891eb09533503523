"""Unit tests for generator-based processes (repro.sim.process)."""

import pytest

from repro.sim import AllOf, Simulator


def test_process_sleeps_for_yielded_delay():
    sim = Simulator()
    log = []

    def proc():
        log.append(sim.now)
        yield 10.0
        log.append(sim.now)
        yield 5.0
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [0.0, 10.0, 15.0]


def test_process_return_value_visible_to_waiter():
    sim = Simulator()
    results = []

    def worker():
        yield 3.0
        return 42

    def waiter():
        value = yield sim.process(worker())
        results.append((sim.now, value))

    sim.process(waiter())
    sim.run()
    assert results == [(3.0, 42)]


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def proc():
        value = yield ev
        got.append((sim.now, value))

    sim.process(proc())
    sim.schedule(8.0, ev.succeed, "payload")
    sim.run()
    assert got == [(8.0, "payload")]


def test_process_yield_list_waits_for_all():
    sim = Simulator()
    got = []

    def worker(delay, tag):
        yield delay
        return tag

    def main():
        a = sim.process(worker(5.0, "a"))
        b = sim.process(worker(9.0, "b"))
        values = yield [a, b]
        got.append((sim.now, values))

    sim.process(main())
    sim.run()
    assert got == [(9.0, ["a", "b"])]


def test_allof_empty_triggers_immediately():
    sim = Simulator()
    got = []

    def main():
        values = yield AllOf(sim, [])
        got.append((sim.now, values))

    sim.process(main())
    sim.run()
    assert got == [(0.0, [])]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def bad():
        yield 1.0
        raise ValueError("kaput")

    def main():
        try:
            yield sim.process(bad())
        except ValueError as err:
            caught.append(str(err))

    sim.process(main())
    sim.run()
    assert caught == ["kaput"]


def test_yielding_garbage_fails_the_process():
    sim = Simulator()

    def bad():
        yield "not-an-event"

    p = sim.process(bad())
    sim.run()
    assert isinstance(p.exception, TypeError)


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def ticker(name, period):
        for _ in range(3):
            yield period
            log.append((name, sim.now))

    sim.process(ticker("a", 10.0))
    sim.process(ticker("b", 15.0))
    sim.run()
    # At t=30 both tickers fire; b's timer was scheduled first (at t=15,
    # before a's at t=20), so scheduling order breaks the tie: b, then a.
    assert log == [
        ("a", 10.0),
        ("b", 15.0),
        ("a", 20.0),
        ("b", 30.0),
        ("a", 30.0),
        ("b", 45.0),
    ]
