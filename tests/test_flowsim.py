"""Tests for the flow-level models (maxmin, tc_alloc, fluid)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traffic_classes import TrafficClass
from repro.flowsim import (
    FluidBottleneck,
    FluidJob,
    allocate_classes,
    split_within_class,
)
from tests.oracles.maxmin import Flow, MaxMinNetwork


# ---------------------------------------------------------------- max-min


def test_single_flow_takes_full_link():
    net = MaxMinNetwork()
    net.add_link("l", 10.0)
    f = net.add_flow(Flow(path=["l"]))
    net.solve()
    assert f.rate == pytest.approx(10.0)


def test_two_flows_share_equally():
    net = MaxMinNetwork()
    net.add_link("l", 10.0)
    f1 = net.add_flow(Flow(path=["l"]))
    f2 = net.add_flow(Flow(path=["l"]))
    net.solve()
    assert f1.rate == pytest.approx(5.0)
    assert f2.rate == pytest.approx(5.0)


def test_weighted_flows():
    net = MaxMinNetwork()
    net.add_link("l", 9.0)
    f1 = net.add_flow(Flow(path=["l"], weight=2.0))
    f2 = net.add_flow(Flow(path=["l"], weight=1.0))
    net.solve()
    assert f1.rate == pytest.approx(6.0)
    assert f2.rate == pytest.approx(3.0)


def test_classic_parking_lot():
    """3-link chain: one long flow + three one-hop flows."""
    net = MaxMinNetwork()
    for i in range(3):
        net.add_link(i, 10.0)
    long = net.add_flow(Flow(path=[0, 1, 2]))
    shorts = [net.add_flow(Flow(path=[i])) for i in range(3)]
    net.solve()
    assert long.rate == pytest.approx(5.0)
    for s in shorts:
        assert s.rate == pytest.approx(5.0)


def test_demand_capped_flow_releases_bandwidth():
    net = MaxMinNetwork()
    net.add_link("l", 10.0)
    small = net.add_flow(Flow(path=["l"], demand=2.0))
    big = net.add_flow(Flow(path=["l"]))
    net.solve()
    assert small.rate == pytest.approx(2.0)
    assert big.rate == pytest.approx(8.0)


def test_unknown_link_rejected():
    net = MaxMinNetwork()
    net.add_link("a", 1.0)
    with pytest.raises(ValueError):
        net.add_flow(Flow(path=["a", "b"]))


def test_duplicate_link_rejected():
    net = MaxMinNetwork()
    net.add_link("a", 1.0)
    with pytest.raises(ValueError):
        net.add_link("a", 2.0)


def test_flow_validation():
    with pytest.raises(ValueError):
        Flow(path=[])
    with pytest.raises(ValueError):
        Flow(path=["x"], weight=0)
    with pytest.raises(ValueError):
        Flow(path=["x"], demand=-1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_maxmin_always_feasible_and_pareto(data):
    n_links = data.draw(st.integers(1, 6))
    caps = data.draw(
        st.lists(st.floats(0.5, 100.0), min_size=n_links, max_size=n_links)
    )
    net = MaxMinNetwork()
    for i, c in enumerate(caps):
        net.add_link(i, c)
    n_flows = data.draw(st.integers(1, 10))
    for _ in range(n_flows):
        path = data.draw(
            st.lists(st.integers(0, n_links - 1), min_size=1, max_size=n_links, unique=True)
        )
        demand = data.draw(st.one_of(st.none(), st.floats(0.1, 50.0)))
        net.add_flow(Flow(path=path, demand=demand))
    net.solve()
    assert net.is_feasible()
    assert net.is_pareto_maximal()


# ---------------------------------------------------------------- tc_alloc


def test_allocate_fig14_split():
    classes = [TrafficClass("tc1", min_share=0.8), TrafficClass("tc2", min_share=0.1)]
    rates = allocate_classes(100.0, classes, [float("inf"), float("inf")])
    assert rates[0] == pytest.approx(80.0)
    assert rates[1] == pytest.approx(20.0)  # 10 guaranteed + 10 spare


def test_allocate_idle_class_gives_all():
    classes = [TrafficClass("tc1", min_share=0.8), TrafficClass("tc2", min_share=0.1)]
    rates = allocate_classes(100.0, classes, [0.0, float("inf")])
    assert rates[0] == 0.0
    assert rates[1] == pytest.approx(100.0)


def test_allocate_equal_classes_split_evenly():
    classes = [TrafficClass("a"), TrafficClass("b")]
    rates = allocate_classes(100.0, classes, [float("inf"), float("inf")])
    assert rates[0] == pytest.approx(50.0)
    assert rates[1] == pytest.approx(50.0)


def test_allocate_respects_max_share():
    classes = [TrafficClass("capped", max_share=0.3), TrafficClass("open")]
    rates = allocate_classes(100.0, classes, [float("inf"), float("inf")])
    assert rates[0] <= 30.0 + 1e-6
    assert rates[0] + rates[1] == pytest.approx(100.0)


def test_allocate_priority_preempts():
    classes = [TrafficClass("bulk", priority=0), TrafficClass("hot", priority=1)]
    rates = allocate_classes(100.0, classes, [float("inf"), float("inf")])
    assert rates[1] == pytest.approx(100.0)
    assert rates[0] == pytest.approx(0.0)


def test_allocate_finite_demand_frees_bandwidth():
    classes = [TrafficClass("a"), TrafficClass("b")]
    rates = allocate_classes(100.0, classes, [10.0, float("inf")])
    assert rates[0] == pytest.approx(10.0)
    assert rates[1] == pytest.approx(90.0)


def test_allocate_never_exceeds_capacity_property():
    classes = [
        TrafficClass("a", min_share=0.5),
        TrafficClass("b", min_share=0.2, max_share=0.4),
        TrafficClass("c", priority=1, max_share=0.5),
    ]
    for demands in (
        [float("inf")] * 3,
        [5.0, float("inf"), 20.0],
        [0.0, 0.0, float("inf")],
        [1.0, 1.0, 1.0],
    ):
        rates = allocate_classes(100.0, classes, demands)
        assert sum(rates) <= 100.0 + 1e-6
        assert all(r >= -1e-9 for r in rates)
        for r, d in zip(rates, demands):
            assert r <= d + 1e-6


def test_split_within_class_maxmin():
    rates = split_within_class(90.0, [10.0, float("inf"), float("inf")])
    assert rates == pytest.approx([10.0, 40.0, 40.0])


def test_split_within_class_empty():
    assert split_within_class(10.0, []) == []


# ---------------------------------------------------------------- fluid


def test_fluid_single_job_duration():
    bn = FluidBottleneck(10.0, [TrafficClass()])
    job = bn.add_job(FluidJob(start_ns=0.0, nbytes=100.0))
    end = bn.run()
    assert job.finished_at == pytest.approx(10.0)
    assert end == pytest.approx(10.0)


def test_fluid_figure14_same_tc_timeline():
    """Job1 alone at full rate; job2 joins -> fair split; job1 ends ->
    job2 ramps to full (paper Fig. 14, top)."""
    bn = FluidBottleneck(10.0, [TrafficClass()])
    j1 = bn.add_job(FluidJob(start_ns=0.0, nbytes=100.0))
    j2 = bn.add_job(FluidJob(start_ns=5.0, nbytes=100.0))
    bn.run()
    assert j1.rate_at(2.0) == pytest.approx(10.0)
    assert j1.rate_at(6.0) == pytest.approx(5.0)
    assert j2.rate_at(6.0) == pytest.approx(5.0)
    # j1 finishes at 5 + 50/5 = 15; j2 then gets everything.
    assert j1.finished_at == pytest.approx(15.0)
    assert j2.rate_at(16.0) == pytest.approx(10.0)


def test_fluid_figure14_separate_tcs_timeline():
    """TC1 min 80% / TC2 min 10%: when both run, 80/20 (paper Fig. 14,
    bottom)."""
    classes = [
        TrafficClass("tc1", min_share=0.8),
        TrafficClass("tc2", min_share=0.1),
    ]
    bn = FluidBottleneck(10.0, classes)
    j1 = bn.add_job(FluidJob(start_ns=0.0, nbytes=200.0, tc=0))
    j2 = bn.add_job(FluidJob(start_ns=5.0, nbytes=100.0, tc=1))
    bn.run()
    assert j1.rate_at(2.0) == pytest.approx(10.0)
    assert j1.rate_at(6.0) == pytest.approx(8.0)
    assert j2.rate_at(6.0) == pytest.approx(2.0)


def test_fluid_open_ended_job_stops_at_end_ns():
    bn = FluidBottleneck(10.0, [TrafficClass()])
    j = bn.add_job(FluidJob(start_ns=0.0, end_ns=7.0))
    t = bn.run(until=20.0)
    assert j.rate_at(3.0) == pytest.approx(10.0)
    assert j.rate_at(8.0) == 0.0
    assert t <= 20.0


def test_fluid_rate_cap():
    bn = FluidBottleneck(10.0, [TrafficClass()])
    j = bn.add_job(FluidJob(start_ns=0.0, nbytes=10.0, rate_cap=2.0))
    bn.run()
    assert j.finished_at == pytest.approx(5.0)


def test_fluid_job_validation():
    with pytest.raises(ValueError):
        FluidJob(start_ns=0.0)  # neither volume nor end time
    bn = FluidBottleneck(10.0, [TrafficClass()])
    with pytest.raises(ValueError):
        bn.add_job(FluidJob(start_ns=0.0, nbytes=1.0, tc=3))
