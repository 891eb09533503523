"""Packets and messages.

A :class:`Message` is a host-level transfer of N payload bytes; the NIC
segments it into :class:`Packet` objects of at most one MTU of payload
each, plus the RoCEv2 header/trailer overhead the paper details (§II-G:
Ethernet 26 B incl. preamble + IPv4 20 B + UDP 8 B + InfiniBand 14 B +
ICRC 4 B = 62 B on a 4 KiB-payload packet).

One :class:`Packet` is built per wire transmission and dies by reference
count once nothing holds it, so a probe may keep any packet it was
handed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from .units import KiB

__all__ = ["Packet", "Message", "MTU_PAYLOAD", "ROCE_HEADER_BYTES"]

#: Slingshot RoCEv2 data packets carry up to 4 KiB of data (paper §II-G).
MTU_PAYLOAD = 4 * KiB
#: Total header+trailer bytes per RoCEv2 packet (paper §II-G).
ROCE_HEADER_BYTES = 62

_next_pid = 0
_next_mid = 0


def _fresh_mid() -> int:
    global _next_mid
    _next_mid += 1
    return _next_mid


class Packet:
    """One wire packet.

    Routing state lives on the packet: ``intermediate_group`` is the
    Valiant misroute target chosen by the injection switch (or None for a
    minimal route) and ``arrival_port`` is the upstream output port whose
    buffer credits the packet currently occupies.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "size",
        "payload",
        "tc",
        "vc",
        "message",
        "inject_time",
        "hops",
        "prop_sum",
        "intermediate_group",
        "arrival_port",
        "arrival_vc",
        "buf_shared",
        "arrival_buf_shared",
        "marked",
        "is_last",
        "traced",
        "seq",
        "attempt",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        payload: int,
        tc: int = 0,
        message: Optional["Message"] = None,
        header_bytes: int = ROCE_HEADER_BYTES,
        is_last: bool = False,
    ):
        # Inlined _fresh_pid(): one Packet per wire transmission makes
        # this constructor part of the delivery hot path.
        global _next_pid
        _next_pid += 1
        self.pid = _next_pid
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = payload + header_bytes
        self.tc = tc
        self.message = message
        self.vc = 0  # virtual channel; bumped per switch hop (deadlock avoidance)
        self.inject_time = 0.0
        self.hops = 0  # switch traversals so far
        self.prop_sum = 0.0  # accumulated wire propagation (for ack latency)
        self.intermediate_group: Optional[int] = None
        self.arrival_port: Any = None
        self.arrival_vc = 0
        self.buf_shared = True  # current buffer slot from the shared pool?
        self.arrival_buf_shared = True
        self.marked = False
        self.is_last = is_last
        self.traced = False  # selected for telemetry span recording?
        self.seq = 0  # position within the parent message (stable across retries)
        self.attempt = 0  # end-to-end transmission attempt (0 = original)

    def clone_for_retry(self) -> "Packet":
        """A fresh copy for end-to-end retransmission.

        The clone gets a new pid (it is a distinct wire packet) but keeps
        the message/seq identity so the receiver can deduplicate if the
        original turns out not to have been lost after all.
        """
        clone = Packet(
            self.src,
            self.dst,
            self.payload,
            tc=self.tc,
            message=self.message,
            header_bytes=int(self.size - self.payload),
            is_last=self.is_last,
        )
        clone.seq = self.seq
        clone.attempt = self.attempt + 1
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Packet(pid={self.pid}, {self.src}->{self.dst}, "
            f"{self.payload}B, tc={self.tc}, hops={self.hops})"
        )


class Message:
    """A host-to-host transfer; completes when every packet has arrived.

    ``on_complete`` is one-shot: the destination NIC clears it, then
    calls it with the message, once, when the last packet arrives, so a
    completed message holds no callback.  ``meta`` belongs to the
    message's sender and the network never reads it; :mod:`repro.mpi`
    parks a send's completion event there until the send completes.
    """

    __slots__ = (
        "mid",
        "src",
        "dst",
        "nbytes",
        "tc",
        "tag",
        "npackets",
        "delivered_packets",
        "submit_time",
        "first_arrival_time",
        "complete_time",
        "on_complete",
        "meta",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tc: int = 0,
        tag: Any = None,
    ):
        if not nbytes >= 0:  # NaN fails this too
            raise ValueError("message size must be non-negative")
        self.mid = _fresh_mid()
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.tc = tc
        self.tag = tag
        self.npackets = max(1, -(-nbytes // MTU_PAYLOAD))  # ceil, min 1
        self.delivered_packets = 0
        self.submit_time = 0.0
        self.first_arrival_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        self.on_complete: Optional[Callable[["Message"], None]] = None
        self.meta: Any = None

    def packets(self, header_bytes: int = ROCE_HEADER_BYTES) -> Iterator[Packet]:
        """Segment the message into MTU-sized packets, lazily.

        A generator: each :class:`Packet` is materialized only when the
        NIC's window actually admits it, so a 256 KiB message no longer
        allocates its full 64-packet list at injection.  Sequence numbers
        and sizes are identical to the eager segmentation; only packet-id
        *assignment order* can differ when messages interleave (pids are
        diagnostic identity, never simulation input).
        """
        src, dst, tc = self.src, self.dst, self.tc
        last = self.npackets - 1
        remaining = self.nbytes
        positive = self.nbytes > 0
        for i in range(self.npackets):
            chunk = min(MTU_PAYLOAD, remaining) if positive else 0
            remaining -= chunk
            # Positional: keyword arguments make this per-packet call
            # about a third slower (CPython 3.11).
            pkt = Packet(src, dst, chunk, tc, self, header_bytes, i == last)
            pkt.seq = i
            yield pkt

    @property
    def complete(self) -> bool:
        return self.delivered_packets >= self.npackets

    def wire_bytes(self, header_bytes: int = ROCE_HEADER_BYTES) -> int:
        """Total bytes on the wire including per-packet overhead."""
        return self.nbytes + self.npackets * header_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Message(mid={self.mid}, {self.src}->{self.dst}, "
            f"{self.nbytes}B in {self.npackets} pkts)"
        )
