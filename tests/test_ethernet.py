"""Tests for the Ethernet enhancement models (paper §II-F)."""

import pytest

from repro.core.ethernet import (
    HPC_ETHERNET,
    STANDARD_ETHERNET,
    FecModel,
    FrameSpec,
    effective_bandwidth,
    frame_rate,
    goodput_fraction,
)
from repro.network.units import gbps


def test_min_frame_sizes_match_paper():
    assert STANDARD_ETHERNET.min_frame == 64
    assert HPC_ETHERNET.min_frame == 32  # "reduces the 64 Bytes minimum frame size to 32"


def test_hpc_removes_ipg_and_l2_header():
    assert STANDARD_ETHERNET.inter_packet_gap == 12
    assert HPC_ETHERNET.inter_packet_gap == 0
    assert HPC_ETHERNET.l2_header == 0  # "allows IP packets to be sent without an Ethernet header"


def test_wire_bytes_pads_to_min_frame():
    assert STANDARD_ETHERNET.wire_bytes(1) == 64 + 8 + 12
    assert HPC_ETHERNET.wire_bytes(1) == 32 + 2


def test_wire_bytes_large_payload():
    assert STANDARD_ETHERNET.wire_bytes(1000) == 1000 + 18 + 8 + 12
    assert HPC_ETHERNET.wire_bytes(1000) == 1000 + 2


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        HPC_ETHERNET.wire_bytes(-1)


def test_hpc_ethernet_beats_standard_for_small_frames():
    """The HPC additions more than double small-message rate."""
    bw = gbps(200)
    std = frame_rate(8, bw, STANDARD_ETHERNET)
    hpc = frame_rate(8, bw, HPC_ETHERNET)
    assert hpc / std > 2.0


def test_effective_bandwidth_converges_for_large_frames():
    bw = gbps(200)
    std = effective_bandwidth(4096, bw, STANDARD_ETHERNET)
    hpc = effective_bandwidth(4096, bw, HPC_ETHERNET)
    assert std / bw > 0.98
    assert hpc / bw > 0.99
    assert hpc > std


def test_goodput_fraction_monotone_in_payload():
    fracs = [goodput_fraction(s, STANDARD_ETHERNET) for s in (1, 46, 100, 1500)]
    assert fracs == sorted(fracs)
    assert fracs[-1] < 1.0


def test_zero_payload_bandwidth_is_zero():
    assert effective_bandwidth(0, gbps(100), HPC_ETHERNET) == 0.0


class TestFec:
    def test_lane_overhead(self):
        fec = FecModel()
        # 56 -> 50 Gb/s per lane (§II-A)
        assert fec.effective_rate(56.0) == pytest.approx(50.0)

    def test_latency_is_low(self):
        assert FecModel().latency_ns <= 100.0


def test_custom_framespec():
    spec = FrameSpec("weird", min_frame=128, preamble=4, inter_packet_gap=2, l2_header=10)
    assert spec.wire_bytes(10) == 128 + 4 + 2
    assert spec.wire_bytes(200) == 210 + 4 + 2
