"""Property: table-driven routing == table-free routing, event for event.

The routing fast path (precomputed candidate tables + epoch-guarded
degraded caches in :class:`~repro.core.adaptive_routing.AdaptiveRouter`)
must be *invisible*: across random topologies, seeds, traffic, and
generated fault schedules, every port choice — and therefore the entire
simulated event stream — must be identical to the table-free reference
routers in ``tests/oracles/routing.py``, which recompute candidate sets
per packet.  The comparison reuses the determinism differ's
:class:`~repro.validate.differ.EventTrace` (pid/mid-normalized labels),
so any divergence reports the exact first event where the two
implementations disagreed.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.adaptive_routing import ValiantRouter
from repro.faults import FaultSchedule
from repro.network.dragonfly import DragonflyParams
from repro.systems import slingshot_config
from repro.validate.differ import EventTrace
from tests.oracles.routing import ReferenceAdaptiveRouter, ReferenceValiantRouter


def _run_traced(cfg, seed, schedule_of=None):
    """Build, inject deterministic random traffic, run under an EventTrace."""
    fabric = cfg.build()
    if schedule_of is not None:
        fabric.attach_faults(
            schedule_of(fabric), base_rto_ns=100_000.0, max_rto_ns=400_000.0
        )
    trace = EventTrace()
    fabric.sim.event_hook = trace
    rng = random.Random(seed)
    nn = fabric.topology.n_nodes
    sent = 0
    while sent < 12:
        src, dst = rng.randrange(nn), rng.randrange(nn)
        if src == dst:
            continue
        fabric.send(src, dst, rng.choice([8, 4_000, 24_000]))
        sent += 1
    fabric.sim.run()
    return fabric, trace


def _assert_equivalent(cfg, seed, schedule_of=None):
    fab_tab, trace_tab = _run_traced(cfg, seed, schedule_of)
    fab_ref, trace_ref = _run_traced(
        cfg.with_(router_factory=ReferenceAdaptiveRouter), seed, schedule_of
    )
    # event-for-event identity (first mismatch pinpointed for debugging)
    n = min(len(trace_tab), len(trace_ref))
    for i in range(n):
        assert trace_tab.events[i] == trace_ref.events[i], (
            f"first divergence at event {i}: "
            f"tables={trace_tab.events[i]!r} ref={trace_ref.events[i]!r}"
        )
    assert len(trace_tab) == len(trace_ref)
    assert trace_tab.fingerprint() == trace_ref.fingerprint()
    # and the routers agree on every fault-path statistic
    assert fab_tab.router.reroutes == fab_ref.router.reroutes
    assert fab_tab.router.no_route == fab_ref.router.no_route
    assert fab_tab.packets_delivered() == fab_ref.packets_delivered()
    assert fab_tab.packets_dropped() == fab_ref.packets_dropped()


# Topology ranges reach past n_candidates = 2 on every sampled
# population (a-2 local detours, up to `links` gateways or direct
# global ports, g-2 Valiant groups), so the inlined RNG sampler is
# compared with the reference router's library sampler; the explicit
# examples guarantee that every run samples.
@settings(max_examples=8, deadline=None)
@given(
    p=st.integers(1, 2),
    a=st.integers(2, 5),
    g=st.integers(2, 6),
    links=st.integers(1, 4),
    seed=st.integers(0, 1_000),
)
@example(p=1, a=5, g=6, links=4, seed=0)
def test_tables_match_reference_healthy(p, a, g, links, seed):
    cfg = slingshot_config(
        DragonflyParams(p, a, g, links_per_pair=links), seed=seed
    )
    _assert_equivalent(cfg, seed)


@settings(max_examples=8, deadline=None)
@given(
    p=st.integers(1, 2),
    a=st.integers(2, 5),
    g=st.integers(2, 6),
    links=st.integers(1, 4),
    seed=st.integers(0, 1_000),
    n_faults=st.integers(1, 4),
)
@example(p=1, a=5, g=6, links=4, seed=1, n_faults=4)
def test_tables_match_reference_under_faults(p, a, g, links, seed, n_faults):
    cfg = slingshot_config(
        DragonflyParams(p, a, g, links_per_pair=links), seed=seed
    )

    def schedule_of(fabric):
        return FaultSchedule.generate(
            fabric,
            seed=seed,
            n_faults=n_faults,
            t_start=5_000.0,
            t_end=400_000.0,
            switch_faults=seed % 2,
        )

    _assert_equivalent(cfg, seed, schedule_of)


@settings(max_examples=6, deadline=None)
@given(
    a=st.integers(2, 5),
    g=st.integers(2, 6),
    seed=st.integers(0, 1_000),
)
@example(a=5, g=6, seed=0)
def test_valiant_tables_match_reference(a, g, seed):
    """The Valiant baseline uses the same tables; same contract."""

    cfg = slingshot_config(
        DragonflyParams(1, a, g, links_per_pair=2),
        seed=seed,
    ).with_(router_factory=ValiantRouter)
    fab_tab, trace_tab = _run_traced(cfg, seed)
    fab_ref, trace_ref = _run_traced(
        cfg.with_(router_factory=ReferenceValiantRouter), seed
    )
    assert trace_tab.fingerprint() == trace_ref.fingerprint()
    assert fab_tab.packets_delivered() == fab_ref.packets_delivered()
