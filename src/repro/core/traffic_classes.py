"""Traffic classes and the per-port egress scheduler (paper §II-E).

A :class:`TrafficClass` is the administrator-tunable entity the paper
describes: priority, minimum-bandwidth guarantee, maximum-bandwidth cap,
and ordering and lossiness knobs.  The paper also gives a class a
routing bias; per-class routing bias is not modelled: every class routes
with the adaptive router's one minimal bias.  Packets carry a TC index
(the DSCP tag in real Slingshot); each egress port keeps one queue per
TC and a :class:`TcScheduler` that decides which queue sends next.

Scheduling policy (matches the behaviour measured in Fig. 14):

1. strict priority between priority levels (higher first);
2. within a priority level, bandwidth is shared in proportion to the
   classes' minimum-bandwidth guarantees (deficit round robin);
3. bandwidth left unreserved — or unused by idle classes — flows to the
   *active class with the lowest guaranteed share* (the paper observes
   exactly this: an 80%/10% reservation yields an 80/20 split);
4. a class never exceeds its ``max_share`` cap (token bucket).

The fluid-model twin of this scheduler lives in
:mod:`repro.flowsim.tc_alloc` and is used for the rate-vs-time figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["TrafficClass", "TcScheduler", "default_traffic_classes", "DSCP_TO_TC"]


@dataclass(frozen=True)
class TrafficClass:
    """One quality-of-service class.

    ``min_share``/``max_share`` are fractions of the port bandwidth in
    [0, 1].  The system administrator must keep the sum of guarantees at
    or below 1 (§II-E); :func:`validate_classes` enforces this.
    """

    name: str = "default"
    priority: int = 0
    min_share: float = 0.0
    max_share: float = 1.0
    ordered: bool = True
    lossless: bool = True
    dscp: Optional[int] = None

    def __post_init__(self):
        if not (0.0 <= self.min_share <= 1.0):
            raise ValueError("min_share must be in [0, 1]")
        if not (0.0 < self.max_share <= 1.0):
            raise ValueError("max_share must be in (0, 1]")
        if self.min_share > self.max_share:
            raise ValueError("min_share cannot exceed max_share")


def validate_classes(classes: Sequence[TrafficClass]) -> None:
    total_guaranteed = sum(tc.min_share for tc in classes)
    if total_guaranteed > 1.0 + 1e-9:
        raise ValueError(
            f"traffic classes' minimum bandwidth guarantees sum to "
            f"{total_guaranteed:.3f} > 1"
        )


def default_traffic_classes(n: int = 1) -> List[TrafficClass]:
    """*n* best-effort classes with no guarantees (plain network)."""
    return [TrafficClass(name=f"tc{i}") for i in range(n)]


#: Example DSCP tag -> TC index mapping (packets carry the index directly
#: in this model; the table documents how real Slingshot classifies).
DSCP_TO_TC = {0: 0, 10: 1, 18: 2, 46: 3}


class TcScheduler:
    """Deficit-round-robin scheduler over a port's per-TC queues.

    The port calls :meth:`select` each time the wire goes idle.  The
    scheduler returns the TC index to serve next, considering only
    *eligible* queues (non-empty, downstream credits available for the
    head packet, token bucket not exhausted).  The caller passes an
    ``eligible`` callable so that credit checking stays in the port.
    """

    __slots__ = (
        "classes",
        "_quantum",
        "_deficit",
        "_served_ewma",
        "_bucket",
        "_bucket_t",
        "_port_bw",
        "_order",
    )

    #: DRR quantum scale (bytes of service per unit of guaranteed share).
    QUANTUM_BYTES = 16 * 1024
    #: EWMA factor for the served-bytes shares used by the spare-bandwidth rule.
    EWMA = 0.05

    def __init__(self, classes: Sequence[TrafficClass], port_bandwidth: float):
        validate_classes(classes)
        # Read-only state is held in tuples: a tuple of numbers drops out
        # of the garbage collector's tracking, which matters with
        # thousands of ports (one scheduler each) per fabric.
        self.classes = tuple(classes)
        n = len(self.classes)
        # Guaranteed quanta; a class with no guarantee still gets a sliver
        # so it is never fully starved inside its priority level.
        self._quantum = tuple(
            max(64.0, tc.min_share * self.QUANTUM_BYTES) for tc in self.classes
        )
        self._deficit = [0.0] * n
        self._served_ewma = [0.0] * n
        # Buckets start full so a capped class can send immediately.
        self._bucket = [float(self.QUANTUM_BYTES)] * n
        self._bucket_t = 0.0
        self._port_bw = port_bandwidth
        # Service order: higher priority first, then declaration order.
        self._order = tuple(
            sorted(range(n), key=lambda i: (-self.classes[i].priority, i))
        )

    def _refill_buckets(self, now: float) -> None:
        dt = now - self._bucket_t
        if dt <= 0:
            return
        self._bucket_t = now
        for i, tc in enumerate(self.classes):
            if tc.max_share < 1.0:
                cap = tc.max_share * self._port_bw
                # Bucket depth of one quantum bounds burstiness.
                self._bucket[i] = min(
                    self.QUANTUM_BYTES, self._bucket[i] + dt * cap
                )

    def _capped(self, i: int, size: float) -> bool:
        return self.classes[i].max_share < 1.0 and self._bucket[i] < size

    def select(self, now: float, head_size, eligible) -> Optional[int]:
        """Pick the next TC to serve.

        ``head_size(i)`` returns the head packet size of queue *i* or None
        if empty; ``eligible(i)`` returns whether queue *i* can transmit
        right now (credits available downstream).  Returns the TC index,
        with the head's bytes charged to its deficit/bucket, or None.
        """
        self._refill_buckets(now)
        active = [
            i
            for i in self._order
            if head_size(i) is not None and eligible(i) and not self._capped(i, head_size(i))
        ]
        if not active:
            return None
        top_priority = self.classes[active[0]].priority
        level = [i for i in active if self.classes[i].priority == top_priority]

        # Spare-bandwidth rule: unreserved bandwidth goes to the active
        # class with the lowest *measured* share — the paper observes
        # exactly this policy in Fig. 14 ("SLINGSHOT decides to
        # dynamically allocate this extra bandwidth to TC2 because it is
        # the traffic class with the lowest bandwidth share").  With
        # equal guarantees the laggard gets it, converging to fairness.
        spare_target = min(level, key=lambda i: (self._served_ewma[i], i))

        # DRR: serve the class whose deficit allows its head packet; top up
        # deficits round by round until someone qualifies (bounded loop:
        # each round adds at least 64 bytes to every active deficit).
        for _ in range(1000):
            for i in level:
                size = head_size(i)
                if self._deficit[i] >= size:
                    self._charge(i, size)
                    return i
            unreserved = max(0.0, 1.0 - sum(self.classes[i].min_share for i in level))
            for i in level:
                self._deficit[i] += self._quantum[i]
                if i == spare_target:
                    self._deficit[i] += unreserved * self.QUANTUM_BYTES
        # Fallback: serve the spare target directly (pathological sizes).
        self._charge(spare_target, head_size(spare_target))
        return spare_target

    def _charge(self, i: int, size: float) -> None:
        self._deficit[i] -= size
        if self.classes[i].max_share < 1.0:
            self._bucket[i] -= size
        for j in range(len(self.classes)):
            self._served_ewma[j] *= 1.0 - self.EWMA
        self._served_ewma[i] += self.EWMA * size

    def reset_deficit(self, i: int) -> None:
        """Standard DRR: a queue that goes idle forfeits its deficit."""
        self._deficit[i] = 0.0

    def set_port_bandwidth(self, bandwidth: float) -> None:
        """Re-rate the scheduler after a link degrade/restore (repro.faults);
        min/max shares are fractions, so caps track the new wire rate."""
        if not bandwidth > 0:  # NaN fails this too
            raise ValueError("bandwidth must be positive")
        self._port_bw = bandwidth

    def earliest_uncap_time(self, now: float, head_size) -> Optional[float]:
        """When a rate-capped queue will next be allowed to send.

        Used by the port to schedule a retry when every backlogged class
        is blocked by its token bucket rather than by credits.  A class
        that is short by less than the clock resolves at *now* gets the
        next representable time, whose refill covers the shortfall
        (``now + wait`` would round back to *now*, and the port would
        arm no timer at all).
        """
        self._refill_buckets(now)
        best = None
        for i, tc in enumerate(self.classes):
            size = head_size(i)
            if size is None or tc.max_share >= 1.0:
                continue
            cap = tc.max_share * self._port_bw
            wait = max(0.0, (size - self._bucket[i]) / cap)
            t = now + wait
            if wait > 0.0 and t <= now:
                t = math.nextafter(now, math.inf)
            if best is None or t < best:
                best = t
        return best
