"""Tests for unit conversions and fabric configuration plumbing."""

import pytest

from repro.core.traffic_classes import TcScheduler, TrafficClass
from repro.network.dragonfly import DragonflyParams
from repro.network.fabric import FabricConfig, LinkSpec
from repro.network.packet import Message
from repro.network.units import (
    KiB,
    MiB,
    GiB,
    MS,
    S,
    US,
    gbps,
    to_gbps,
)


def test_time_constants():
    assert US == 1e3 and MS == 1e6 and S == 1e9


def test_size_constants():
    assert KiB == 1024
    assert MiB == 1024 * KiB
    assert GiB == 1024 * MiB


def test_bandwidth_round_trip():
    for rate in (1.0, 100.0, 200.0, 400.0):
        assert to_gbps(gbps(rate)) == pytest.approx(rate)


def test_paper_link_speeds():
    assert gbps(200) == 25.0  # Slingshot link: 25 bytes/ns
    assert gbps(100) == 12.5  # ConnectX-5


def test_linkspec_validation():
    with pytest.raises(ValueError):
        LinkSpec(0.0, 1.0, 1024)
    with pytest.raises(ValueError):
        LinkSpec(1.0, -1.0, 1024)
    with pytest.raises(ValueError):
        LinkSpec(1.0, 1.0, 0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("switch_latency", -1.0),
        ("ack_overhead", -1.0),
        ("nic_bandwidth", -1.0),
        ("nic_bandwidth", 0.0),
        ("classes", []),
        ("classes", [TrafficClass(min_share=0.6)] * 2),
    ],
)
def test_fabricconfig_rejects_bad_scalars(field, value):
    """Each of these used to build: negative latencies and rates stepped
    the simulated clock backwards, a zero NIC rate divided by zero
    mid-run, no classes raised IndexError inside the build, and
    guarantees summing past 1 failed only in build(), inside the first
    port's scheduler."""
    with pytest.raises(ValueError, match=field):
        FabricConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        FabricConfig().with_(**{field: value})


NAN = float("nan")


def _injection_port():
    params = DragonflyParams(1, 2, 2, links_per_pair=1)
    return FabricConfig(params=params).build().nics[0].out_port


@pytest.mark.parametrize(
    "make",
    [
        lambda: LinkSpec(NAN, 1.0, 1024),
        lambda: LinkSpec(1.0, NAN, 1024),
        lambda: LinkSpec(1.0, 1.0, NAN),
        lambda: LinkSpec(1.0, 1.0, 1024, replay_latency_ns=NAN),
        lambda: FabricConfig(mark_threshold=NAN),
        lambda: FabricConfig().with_(switch_buffer_bytes=NAN),
        lambda: _injection_port().set_bandwidth(NAN),
        lambda: TcScheduler([TrafficClass()], 25.0).set_port_bandwidth(NAN),
        lambda: Message(0, 5, NAN),
    ],
    ids=[
        "link-bandwidth",
        "link-prop-delay",
        "link-buffer",
        "link-replay-latency",
        "mark-threshold",
        "switch-buffer",
        "port-set-bandwidth",
        "scheduler-set-bandwidth",
        "message-nbytes",
    ],
)
def test_nan_sizes_rates_and_delays_are_rejected(make):
    """NaN slips past every `x < 0` / `x <= 0` check.  Each of these
    used to be accepted: a NaN link rate died mid-run converting a NaN
    event time, a NaN switch buffer made the scheduler pick an
    ineligible queue at the first send, a NaN mark threshold silently
    disabled marking, and a NaN-byte message "completed" as one
    header-only packet."""
    with pytest.raises(ValueError):
        make()


def test_fabricconfig_with_creates_modified_copy():
    cfg = FabricConfig()
    cfg2 = cfg.with_(switch_latency=123.0)
    assert cfg2.switch_latency == 123.0
    assert cfg.switch_latency != 123.0  # original untouched
    assert cfg2.params is cfg.params


def test_fabricconfig_build_shortcut():
    fabric = FabricConfig().build()
    assert fabric.topology.n_nodes == fabric.config.params.n_nodes


def test_default_config_is_slingshot_flavoured():
    cfg = FabricConfig()
    assert cfg.cc == "slingshot"
    assert cfg.switch_latency == 350.0
    assert not cfg.shared_switch_buffers
