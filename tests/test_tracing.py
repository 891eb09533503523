"""Tests for the per-message tracer."""

import pytest

from repro.analysis import MessageTracer
from repro.network.units import KiB
from repro.probe import Probe
from repro.systems import malbec_mini


@pytest.fixture
def traced_fabric():
    fabric = malbec_mini().build()
    tracer = MessageTracer(fabric)
    return fabric, tracer


def test_records_every_message(traced_fabric):
    fabric, tracer = traced_fabric
    for i in range(10):
        fabric.send(i, i + 40, 4 * KiB)
    fabric.sim.run()
    assert len(tracer) == 10
    for rec in tracer.records:
        assert rec.latency_ns > 0
        assert rec.bandwidth > 0
        assert rec.distance in (1, 2, 3)


def test_distance_classification(traced_fabric):
    fabric, tracer = traced_fabric
    fabric.send(0, 1, 64)  # same switch
    fabric.send(0, 4, 64)  # same group
    fabric.send(0, 30, 64)  # cross group
    fabric.sim.run()
    assert sorted(r.distance for r in tracer.records) == [1, 2, 3]


def test_latency_percentiles_by_distance(traced_fabric):
    fabric, tracer = traced_fabric
    for _ in range(5):
        fabric.send(0, 1, 8)
        fabric.send(0, 30, 8)
    fabric.sim.run()
    summary = tracer.by_distance()
    assert set(summary) == {1, 3}
    # cross-group is slower at every percentile (quiet network)
    for q in (50, 95, 99):
        assert summary[3][q] > summary[1][q]


class MessageLog(Probe):
    """An observer already on a NIC before the tracer arrives."""

    def __init__(self):
        self.seen = []

    def message_done(self, nic, msg):
        self.seen.append(msg.mid)


def _observe_nic(fabric, index):
    log = MessageLog()
    nic = fabric.nics[index]
    fabric.attach_probe(lambda c: log if c is nic else None)
    return log


def test_chains_existing_on_message_hook():
    fabric = malbec_mini().build()
    log = _observe_nic(fabric, 5)
    tracer = MessageTracer(fabric)
    fabric.send(0, 5, 128)
    fabric.sim.run()
    assert len(log.seen) == 1  # the earlier observer still fires
    assert len(tracer) == 1


def test_csv_export(tmp_path, traced_fabric):
    fabric, tracer = traced_fabric
    fabric.send(2, 50, 1 * KiB)
    fabric.sim.run()
    text = tracer.to_csv()
    assert text.splitlines()[0].startswith("src,dst,nbytes")
    assert len(text.splitlines()) == 2
    out = tmp_path / "trace.csv"
    tracer.save_csv(str(out))
    assert out.read_text() == text


def test_empty_tracer_percentiles_nan(traced_fabric):
    _, tracer = traced_fabric
    import math

    assert all(math.isnan(v) for v in tracer.percentiles().values())


def test_loopback_distance_zero(traced_fabric):
    fabric, tracer = traced_fabric
    fabric.send(7, 7, 64)
    fabric.sim.run()
    assert tracer.records[0].distance == 0


def test_detach_stops_recording():
    fabric = malbec_mini().build()
    tracer = MessageTracer(fabric)
    fabric.send(0, 5, 128)
    fabric.sim.run()
    assert len(tracer) == 1
    tracer.detach()
    fabric.send(0, 6, 128)
    fabric.sim.run()
    assert len(tracer) == 1  # nothing recorded after detach
    tracer.detach()  # idempotent


def test_detach_restores_previous_hooks():
    fabric = malbec_mini().build()
    log = _observe_nic(fabric, 5)
    tracer = MessageTracer(fabric)
    tracer.detach()
    assert fabric.nics[5].probe is log  # unwrapped back to the earlier observer
    fabric.send(0, 5, 128)
    fabric.sim.run()
    assert len(log.seen) == 1  # and it is still firing
    assert len(tracer) == 0
    assert fabric.nics[0].probe is None


def test_two_sequential_tracers_do_not_double_record():
    fabric = malbec_mini().build()
    with MessageTracer(fabric) as first:
        fabric.send(0, 5, 128)
        fabric.sim.run()
    with MessageTracer(fabric) as second:
        fabric.send(0, 6, 128)
        fabric.sim.run()
    assert len(first) == 1
    assert len(second) == 1  # not 2: the first tracer is fully gone


def test_context_manager_detaches_on_exit():
    fabric = malbec_mini().build()
    with MessageTracer(fabric) as tracer:
        assert all(nic.probe is tracer for nic in fabric.nics)
    assert all(nic.probe is None for nic in fabric.nics)
