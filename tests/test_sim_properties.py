"""Property-based tests (hypothesis) for the DES engine invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


@given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=200))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e6), st.integers(0, 99)),
        min_size=1,
        max_size=100,
    )
)
def test_equal_time_events_fire_fifo(items):
    sim = Simulator()
    fired = []
    for delay, tag in items:
        sim.schedule(delay, fired.append, (delay, tag))
    sim.run()
    # Stable sort by time must reproduce the firing order exactly.
    assert fired == sorted(fired, key=lambda x: x[0])


@settings(max_examples=25)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=2, max_size=60),
    st.integers(min_value=0, max_value=2**31),
)
def test_simulation_is_deterministic_across_runs(delays, seed):
    """Two identical simulations produce identical event traces."""

    def run_once():
        sim = Simulator()
        rng = np.random.default_rng(seed)
        trace = []

        def proc(i, d):
            yield d
            extra = float(rng.random())
            yield extra
            trace.append((i, sim.now))

        for i, d in enumerate(delays):
            sim.process(proc(i, d))
        sim.run()
        return trace

    assert run_once() == run_once()
