"""Per-message tracing: capture what happened to every transfer.

Attach a :class:`MessageTracer` to a fabric before running; it records
one row per completed message (source, destination, size, latency,
achieved bandwidth, hop distance class) and offers percentile summaries
and CSV export — the raw material for latency-distribution figures like
the paper's Fig. 2/4/8.  It is a NIC probe (:mod:`repro.probe`).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..network.fabric import Fabric
from ..network.nic import NIC
from ..probe import Probe
from .stats import percentiles as _percentiles

__all__ = ["MessageRecord", "MessageTracer"]


@dataclass(frozen=True)
class MessageRecord:
    src: int
    dst: int
    nbytes: int
    tc: int
    submit_ns: float
    complete_ns: float
    distance: int  # 1 = same switch, 2 = same group, 3 = cross-group

    @property
    def latency_ns(self) -> float:
        return self.complete_ns - self.submit_ns

    @property
    def bandwidth(self) -> float:
        """Achieved bytes/ns (0 for zero-byte messages)."""
        return self.nbytes / self.latency_ns if self.latency_ns > 0 else 0.0


class MessageTracer(Probe):
    """Records every completed message on a fabric.

    Attaches as the probe of every NIC (``message_done``) — attach once,
    before traffic starts.  Call :meth:`detach` (or use the tracer as a
    context manager) to stop recording and remove exactly this tracer's
    probes; any other tracer or subscriber keeps recording.
    """

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self.records: List[MessageRecord] = []
        self._handle = fabric.attach_probe(
            lambda c: self if isinstance(c, NIC) else None
        )

    def detach(self) -> None:
        """Stop recording and remove this tracer's probes (idempotent)."""
        self._handle.detach()

    def __enter__(self) -> "MessageTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    def message_done(self, nic, msg) -> None:
        if msg.src == msg.dst:
            distance = 0
        else:
            distance = self.fabric.node_distance(msg.src, msg.dst)
        self.records.append(
            MessageRecord(
                src=msg.src,
                dst=msg.dst,
                nbytes=msg.nbytes,
                tc=msg.tc,
                submit_ns=msg.submit_time,
                complete_ns=msg.complete_time,
                distance=distance,
            )
        )

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def latencies(self, distance: Optional[int] = None) -> np.ndarray:
        rows = (
            self.records
            if distance is None
            else [r for r in self.records if r.distance == distance]
        )
        return np.array([r.latency_ns for r in rows])

    def percentiles(self, qs=(50, 95, 99), distance: Optional[int] = None) -> Dict[int, float]:
        return _percentiles(self.latencies(distance), qs)

    def by_distance(self) -> Dict[int, Dict[int, float]]:
        """Fig. 4-style summary: latency percentiles per distance class."""
        out = {}
        for d in sorted({r.distance for r in self.records}):
            out[d] = self.percentiles(distance=d)
        return out

    # -- export ---------------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["src", "dst", "nbytes", "tc", "submit_ns", "complete_ns",
             "latency_ns", "distance"]
        )
        for r in self.records:
            writer.writerow(
                [r.src, r.dst, r.nbytes, r.tc, f"{r.submit_ns:.1f}",
                 f"{r.complete_ns:.1f}", f"{r.latency_ns:.1f}", r.distance]
            )
        return buf.getvalue()

    def save_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())
