"""Ethernet enhancements (paper §II-F) and the RoCEv2 protocol stack (§II-G).

Slingshot speaks standard Ethernet on every port but adds an optimized
protocol for internal traffic:

* minimum frame size reduced from 64 to 32 bytes;
* IP packets may be sent without the Ethernet header;
* the 12-byte inter-packet gap is removed;
* low-latency FEC (required at >=100 Gb/s), link-level reliability (LLR)
  for transient errors, and lane degrade for hard failures.

This module is pure protocol arithmetic: frame layouts, effective
bandwidth, frame rate and goodput, and the FEC lane overhead.  The
simulator does not use it: its packets carry the RoCEv2 header bytes of
:mod:`repro.network.packet`, and its output ports replay LLR errors
frame by frame.  ``tests/test_ethernet.py`` pins the paper's framing
claims here.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FrameSpec",
    "STANDARD_ETHERNET",
    "HPC_ETHERNET",
    "effective_bandwidth",
    "frame_rate",
    "goodput_fraction",
    "FecModel",
    "SERDES_LANES",
    "LANE_RAW_GBPS",
    "LANE_EFFECTIVE_GBPS",
]

#: Each Rosetta port uses four 56 Gb/s PAM-4 SerDes lanes; FEC overhead
#: leaves 50 Gb/s usable per lane (paper §II-A).
SERDES_LANES = 4
LANE_RAW_GBPS = 56.0
LANE_EFFECTIVE_GBPS = 50.0


@dataclass(frozen=True)
class FrameSpec:
    """Wire-format parameters of an Ethernet variant."""

    name: str
    min_frame: int  # bytes, excluding preamble/IPG
    preamble: int  # preamble + SFD bytes actually sent
    inter_packet_gap: int  # idle bytes between frames
    l2_header: int  # Ethernet header + FCS bytes per frame

    def wire_bytes(self, l2_payload: int) -> int:
        """Total wire bytes consumed by one frame carrying *l2_payload*
        (the L2 payload is padded up to the minimum frame size)."""
        if l2_payload < 0:
            raise ValueError("payload must be non-negative")
        frame = max(self.min_frame, l2_payload + self.l2_header)
        return frame + self.preamble + self.inter_packet_gap


#: Classic Ethernet: 64 B minimum frame, 8 B preamble, 12 B IPG,
#: 14 B header + 4 B FCS.
STANDARD_ETHERNET = FrameSpec("standard", 64, 8, 12, 18)

#: Slingshot's enhanced protocol: 32 B minimum frame, no IPG, and the
#: Ethernet L2 header elided for IP traffic (§II-F).  A 2-byte preamble
#: remains for framing.
HPC_ETHERNET = FrameSpec("hpc", 32, 2, 0, 0)


def effective_bandwidth(l2_payload: int, link_bw: float, spec: FrameSpec) -> float:
    """Payload throughput (bytes/ns) on a *link_bw* link for back-to-back
    frames of the given payload size."""
    if l2_payload <= 0:
        return 0.0
    return link_bw * l2_payload / spec.wire_bytes(l2_payload)


def frame_rate(l2_payload: int, link_bw: float, spec: FrameSpec) -> float:
    """Frames per nanosecond for back-to-back frames."""
    return link_bw / spec.wire_bytes(l2_payload)


def goodput_fraction(l2_payload: int, spec: FrameSpec) -> float:
    """Fraction of wire bytes that are payload."""
    return l2_payload / spec.wire_bytes(l2_payload)


@dataclass(frozen=True)
class FecModel:
    """Low-latency forward error correction (§II-F).

    FEC is mandatory at 100 Gb/s and above regardless of system size;
    the low-latency variant trades correction strength for a shorter
    encode+decode pipeline.
    """

    latency_ns: float = 30.0
    #: fraction of lane bandwidth consumed by parity (56 -> 50 Gb/s).
    bandwidth_overhead: float = 1.0 - LANE_EFFECTIVE_GBPS / LANE_RAW_GBPS
    #: probability a frame still arrives corrupted after correction
    residual_error_rate: float = 1e-12

    def effective_rate(self, raw_rate: float) -> float:
        return raw_rate * (1.0 - self.bandwidth_overhead)
