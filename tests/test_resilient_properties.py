"""Property tests (hypothesis) for the resilience subsystem's two
determinism claims:

1. the retry backoff schedule is a *pure function* of cell identity —
   same cell, same schedule, on any machine, with no RNG state; and
2. resuming a journaled sweep after an arbitrary prefix of completed
   cells (the survivors of a crash) reproduces the uninterrupted result
   list exactly, cell for cell.

The resume property runs the supervised harness with
``in_process=True`` — same bookkeeping, journal, and retry semantics,
without paying process-spawn latency hundreds of times.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilient import (
    ResilienceConfig,
    ResultJournal,
    RetryPolicy,
    run_supervised,
)

cell_keys = st.one_of(
    st.text(max_size=30),
    st.integers(),
    st.tuples(st.integers(), st.text(max_size=10)),
)

policies = st.builds(
    RetryPolicy,
    retries=st.integers(min_value=0, max_value=6),
    base_delay_s=st.floats(min_value=0.0, max_value=10.0),
    cap_delay_s=st.floats(min_value=0.0, max_value=60.0),
    jitter=st.floats(min_value=0.0, max_value=1.0),
)


@pytest.mark.parametrize("field", ["base_delay_s", "cap_delay_s"])
def test_nan_backoff_delay_rejected(field):
    # a NaN cap makes every delay NaN, and the failed cell is never rerun
    with pytest.raises(ValueError, match=field):
        RetryPolicy(**{field: math.nan})


@given(policies, cell_keys)
def test_backoff_schedule_is_deterministic_per_cell(policy, key):
    first = policy.schedule(key)
    again = policy.schedule(key)
    assert first == again  # bit-identical: no RNG state, no clock
    assert len(first) == policy.retries
    # rebuilding the policy from the same knobs changes nothing either
    clone = RetryPolicy(
        retries=policy.retries,
        base_delay_s=policy.base_delay_s,
        cap_delay_s=policy.cap_delay_s,
        jitter=policy.jitter,
    )
    assert clone.schedule(key) == first


@given(policies, cell_keys, st.integers(min_value=1, max_value=10))
def test_backoff_delay_bounded_by_policy(policy, key, attempt):
    delay = policy.delay_s(key, attempt)
    cap = min(policy.cap_delay_s, policy.base_delay_s * 2.0 ** (attempt - 1))
    assert 0.0 <= delay <= cap + 1e-12
    assert delay >= cap * (1.0 - policy.jitter) - 1e-12


@given(cell_keys, cell_keys)
def test_backoff_jitter_varies_with_cell_identity(a, b):
    """Distinct cells should (almost always) land on distinct points of
    the jitter window — that is the whole point of per-cell jitter."""
    policy = RetryPolicy(retries=3, base_delay_s=1.0, cap_delay_s=8.0, jitter=1.0)
    if str(a) == str(b):
        # stable_hash identity is the stringified key (1 and "1" coincide)
        assert policy.schedule(a) == policy.schedule(b)
    elif policy.delay_s(a, 1) == policy.delay_s(b, 1):
        # a 32-bit hash collision is possible; the full schedule colliding
        # across all attempts is not credible for distinct keys
        assert policy.schedule(a) != policy.schedule(b)


def _cube(x):
    return x**3


@settings(max_examples=25, deadline=None)
@given(
    cells=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12),
    data=st.data(),
)
def test_resume_over_killed_prefix_reproduces_uninterrupted_run(
    tmp_path_factory, cells, data
):
    """Kill a journaled sweep after a random number of completed cells;
    --resume must produce exactly the uninterrupted result list."""
    tmp = tmp_path_factory.mktemp("resume")
    uninterrupted = run_supervised(
        _cube, cells, config=ResilienceConfig(in_process=True)
    )

    # run to completion with a journal, then throw away a random suffix
    # of records — the on-disk state a mid-sweep SIGKILL leaves behind
    # (atomic rewrites mean the file is always a complete prefix).
    full_path = str(tmp / "full.jsonl")
    run_supervised(
        _cube, cells, config=ResilienceConfig(in_process=True, journal=full_path)
    )
    survivors = data.draw(
        st.integers(min_value=0, max_value=len(cells)), label="surviving cells"
    )
    crashed = ResultJournal(str(tmp / "crashed.jsonl"))
    for rec in ResultJournal(full_path).records()[:survivors]:
        crashed._records[(rec["worker"], rec["index"], rec["cell"])] = rec
    crashed._flush()

    resumed = run_supervised(
        _cube,
        cells,
        config=ResilienceConfig(
            in_process=True, journal=crashed.path, resume=True
        ),
    )
    assert resumed == uninterrupted == [c**3 for c in cells]


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
def test_resumed_floats_are_bit_identical(tmp_path_factory, values):
    """Journal round-trips must not perturb float results (the sweeps'
    payloads are goodput/latency floats)."""
    tmp = tmp_path_factory.mktemp("floats")
    path = str(tmp / "j.jsonl")
    cells = list(range(len(values)))

    def pick(i, _values=tuple(values)):
        return _values[i]

    # in_process handles closures fine — nothing crosses a process boundary
    first = run_supervised(
        pick, cells, config=ResilienceConfig(in_process=True, journal=path)
    )
    resumed = run_supervised(
        pick,
        cells,
        config=ResilienceConfig(in_process=True, journal=path, resume=True),
    )
    assert len(resumed) == len(first)
    for a, b in zip(resumed, first):
        assert math.copysign(1.0, a) == math.copysign(1.0, b)
        assert a == b
