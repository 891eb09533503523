"""End-to-end retransmission (the recovery half of fault tolerance).

Link-level retry (LLR, paper §II-F) repairs *transient* corruption
locally, but a fail-stopped wire or switch loses the packets queued
behind it outright.  :class:`EndToEndReliability` is the NIC-side timer
that turns those losses back into delays: every injected packet is
tracked until its end-to-end ack returns; a packet whose retransmission
timeout (RTO) expires is re-injected as a fresh clone with exponential
backoff; the receiver deduplicates by ``(message id, sequence)`` in case
the "lost" original survived after all.

The layer is armed per NIC by :class:`repro.faults.FaultInjector` and is
``None`` otherwise — every hook in the NIC is one attribute check, so an
un-faulted fabric pays nothing and runs bit-identically.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

__all__ = ["EndToEndReliability"]


class EndToEndReliability:
    """Per-NIC retransmission timer + receiver-side deduplication.

    Bookkeeping is keyed ``(message id, packet sequence)``: stable across
    retries (a clone keeps its seq) and unique across the run.  One live
    timer is kept per NIC, armed at the earliest outstanding deadline —
    not one per packet — and re-arming at an earlier deadline *cancels*
    the superseded timer (O(1) lazy deletion in the engine), so the event
    queue stays bounded by live timers even under retransmission storms.
    """

    __slots__ = (
        "nic",
        "sim",
        "base_rto_ns",
        "backoff",
        "max_rto_ns",
        "max_retries",
        "outstanding",
        "retransmits",
        "dup_acks",
        "dup_pkts",
        "giveups",
        "_seen",
        "_timer_at",
        "_timer",
    )

    def __init__(
        self,
        nic,
        base_rto_ns: float = 1_000_000.0,
        backoff: float = 2.0,
        max_rto_ns: float = 8_000_000.0,
        max_retries: Optional[int] = None,
    ):
        if base_rto_ns <= 0:
            raise ValueError("base_rto_ns must be positive")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if max_rto_ns < base_rto_ns:
            raise ValueError("max_rto_ns must be >= base_rto_ns")
        self.nic = nic
        self.sim = nic.sim
        self.base_rto_ns = base_rto_ns
        self.backoff = backoff
        self.max_rto_ns = max_rto_ns
        #: attempts before declaring a packet undeliverable (None = never)
        self.max_retries = max_retries
        #: (mid, seq) -> [latest packet attempt, deadline_ns, pair state]
        self.outstanding: Dict[Tuple[int, int], list] = {}
        self.retransmits = 0
        self.dup_acks = 0
        self.dup_pkts = 0
        self.giveups = 0
        #: receiver side: mid -> set of seqs already counted
        self._seen: Dict[int, Set[int]] = {}
        self._timer_at: Optional[float] = None
        self._timer = None

    def rto(self, attempt: int) -> float:
        """Retransmission timeout for the given attempt number.

        Capped at ``max_rto_ns``, also once ``backoff ** attempt`` no
        longer fits a float (attempt 1,024 at the default backoff of 2).
        """
        try:
            grown = self.backoff**attempt
        except OverflowError:
            return self.max_rto_ns
        return min(self.base_rto_ns * grown, self.max_rto_ns)

    # -- sender side ---------------------------------------------------------

    def on_inject(self, pkt, state) -> None:
        """Track a freshly injected packet until its ack settles it."""
        deadline = self.sim.now + self.rto(pkt.attempt)
        self.outstanding[(pkt.message.mid, pkt.seq)] = [pkt, deadline, state]
        self._arm(deadline)

    def on_ack(self, pkt) -> bool:
        """True if this ack settles an outstanding packet; False for the
        redundant ack of an attempt that was already settled (the NIC
        must not decrement its in-flight window again)."""
        if self.outstanding.pop((pkt.message.mid, pkt.seq), None) is None:
            self.dup_acks += 1
            return False
        if not self.outstanding and self._timer is not None:
            # Nothing left to watch: drop the timer instead of letting it
            # pop through the event queue as a no-op.
            self._timer.cancel()
            self._timer = None
            self._timer_at = None
        return True

    # -- receiver side -------------------------------------------------------

    def on_deliver(self, pkt) -> bool:
        """True if this is the first arrival of (mid, seq); False for a
        duplicate (original and retransmission both made it through)."""
        mid = pkt.message.mid
        seen = self._seen.get(mid)
        if seen is None:
            self._seen[mid] = {pkt.seq}
        elif pkt.seq in seen:
            self.dup_pkts += 1
            return False
        else:
            seen.add(pkt.seq)
        return True

    # -- timer ---------------------------------------------------------------

    def _arm(self, deadline: float) -> None:
        if self._timer_at is None or deadline < self._timer_at:
            if self._timer is not None:
                self._timer.cancel()
            self._timer_at = deadline
            self._timer = self.sim.schedule_at_cancellable(deadline, self._fire)

    def _fire(self) -> None:
        self._timer_at = None
        self._timer = None
        now = self.sim.now
        expired = [k for k, e in self.outstanding.items() if e[1] <= now]
        for key in expired:
            entry = self.outstanding[key]
            pkt, _, state = entry
            if self.max_retries is not None and pkt.attempt >= self.max_retries:
                # Undeliverable: free the window slot so the rest of the
                # traffic keeps flowing.  The message stays incomplete.
                del self.outstanding[key]
                self.giveups += 1
                state.in_flight -= 1
                self.nic._pump(state)
                continue
            if not self.nic.out_port.up:
                # Our own injection wire is down: a clone would only park
                # in host memory next to the original.  Check back later.
                entry[1] = now + self.base_rto_ns
                continue
            clone = pkt.clone_for_retry()
            entry[0] = clone
            entry[1] = now + self.rto(clone.attempt)
            self.retransmits += 1
            self.nic._reinject(clone)
        if self.outstanding:
            self._arm(min(e[1] for e in self.outstanding.values()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EndToEndReliability(nic={self.nic.node}, "
            f"outstanding={len(self.outstanding)}, "
            f"retransmits={self.retransmits})"
        )
