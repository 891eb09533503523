"""The one tick rule for periodic samplers (repro.sim.PeriodicTick).

A sampler that watches a run from the event queue must never keep it
alive: a tick re-arms only while the queue holds an entry that is not
some periodic tick's.  With the rule shared, any mix of samplers on one
fabric still drains, and each fires at most one interval past the last
real event.
"""

import pytest

from repro.network.units import KiB
from repro.observe import TimeSeriesEngine
from repro.sim import Simulator
from repro.systems import malbec_mini
from repro.telemetry import TelemetryRegistry

_SLICE_NS = 1e6
_BOUND_NS = 10e6


def _observer(window_ns):
    return lambda fabric: fabric.attach_observer(window_ns=window_ns)


def _auditor(fabric):
    return fabric.attach_auditor()


def _one_sample_engine(fabric):
    telem = fabric.attach_telemetry(sample_rate=0.0)
    return TimeSeriesEngine(fabric.sim, telem.registry, window_ns=10_000.0,
                            samples_per_window=1).start()


@pytest.mark.parametrize("pair", [
    (_auditor, _observer(10_000.0)),
    (_observer(10_000.0), _observer(7_000.0)),
    (_auditor, _one_sample_engine),
], ids=["auditor+observer", "two-observers", "auditor+one-sample-engine"])
def test_no_sampler_keeps_a_run_alive(pair):
    fabric = malbec_mini().build()
    for attach in pair:
        attach(fabric)
    sim = fabric.sim
    events = []
    sim.event_hook = lambda t, fn, args: events.append((t, fn))
    msgs = [fabric.send(src, 0, 16 * KiB) for src in range(1, 11)]
    while sim.queue_length and sim.now < _BOUND_NS:
        sim.run(until=sim.now + _SLICE_NS)
    assert sim.queue_length == 0, (
        f"{sim.queue_length} entries still queued at t={sim.now:g} ns"
    )
    assert all(m.complete_time is not None for m in msgs)
    fabric.assert_quiescent()

    from repro.sim import PeriodicTick

    def tick(fn):
        owner = getattr(fn, "__self__", None)
        return owner if isinstance(owner, PeriodicTick) else None

    last_work = max(t for t, fn in events if tick(fn) is None)
    late = [(t, tick(fn).interval_ns) for t, fn in events
            if tick(fn) is not None and t > last_work + tick(fn).interval_ns]
    assert not late, f"ticks after the last event at {last_work:g} ns: {late}"
    assert sim.periodic_ticks == 0


def test_a_cancelled_timer_is_not_work():
    """A cancelled timer left in the queue (a retransmission deadline
    whose packets were all acked) must not keep a sampler ticking until
    its deadline."""
    sim = Simulator()
    engine = TimeSeriesEngine(sim, TelemetryRegistry(), window_ns=10.0,
                              samples_per_window=1).start()
    timer = sim.schedule_cancellable(1_000.0, lambda: None)
    sim.schedule(25.0, timer.cancel)
    sim.run()
    assert [w.t1 for w in engine.windows] == [10.0, 20.0, 30.0]
    assert sim.now == 30.0
