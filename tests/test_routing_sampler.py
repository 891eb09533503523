"""Property: the inlined sampler is ``random.Random.sample``.

:func:`repro.sim.rng.sample` (behind :meth:`AdaptiveRouter._sample` and
:meth:`FaultSchedule.generate`) re-implements the library sampler with
direct ``getrandbits`` draws.  It must pick the same elements in the
same order and leave the RNG in the same state, in both of the
library's branches: the partial swap over a small population and the
rejection set above the size threshold (21 for k <= 5, 85 for k in
6..8, so n up to 600 crosses it for every k).  The interpreter's own
``random`` module is the oracle, so the pin holds on every supported
Python version.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive_routing import AdaptiveRouter
from repro.network.dragonfly import DragonflyTopology, DragonflyParams
from repro.sim.rng import sample


def _router(seed: int) -> AdaptiveRouter:
    return AdaptiveRouter(DragonflyTopology(DragonflyParams(1, 2, 2)), seed=seed)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 600),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(1, 4),
)
def test_sample_matches_library_draw_for_draw(n, k, seed, draws):
    router = _router(seed)
    library = random.Random()
    library.setstate(router._rng.getstate())
    population = tuple(range(1000, 1000 + n))
    for _ in range(draws):
        got = router._sample(population, k)
        if n <= k:
            # fits: returned as is, no RNG consumed (callers only iterate)
            assert got is population
        else:
            assert got == library.sample(population, k)
        assert router._rng.getstate() == library.getstate()


def test_sample_crosses_the_library_set_threshold():
    """Both branches run: n = 21 is the last swap-branch size for k = 2,
    n = 22 the first rejection-branch size; the RNG streams must agree
    across a long mixed sequence."""
    router = _router(7)
    library = random.Random()
    library.setstate(router._rng.getstate())
    for n in (7, 21, 22, 85, 86, 600) * 50:
        population = list(range(n))
        for k in (2, 6):
            assert router._sample(population, k) == library.sample(population, k)
    assert router._rng.getstate() == library.getstate()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 600), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_function_matches_library_for_every_k(n, data, seed):
    """The shared function has the library's own contract: any k from 0
    to n, k = n included (a full shuffle that still draws), any
    indexable population."""
    k = data.draw(st.integers(0, n))
    ours, library = random.Random(seed), random.Random(seed)
    population = range(n) if seed % 2 else [str(i) for i in range(n)]
    assert sample(ours.getrandbits, population, k) == library.sample(population, k)
    assert ours.getstate() == library.getstate()


def test_function_rejects_oversized_samples():
    rng = random.Random(0)
    for k in (-1, 4):
        with pytest.raises(ValueError):
            sample(rng.getrandbits, (1, 2, 3), k)
