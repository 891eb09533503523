"""Input-buffer organization: shared pool + per-VC escape reserves.

Real high-radix switches (Rosetta included — §II-E: "the remaining
buffers will be dynamically allocated") organize each input buffer as a
large dynamically shared region plus a small dedicated slice per virtual
channel.  Both halves matter here:

* the **shared pool** is what makes tree saturation contagious: transit
  congestion parked in the shared region starves *other* traffic that
  arrives on the same wire, even on a different VC;
* the **per-VC reserve** guarantees forward progress on every VC, which
  preserves the deadlock-freedom argument (a packet on VC k can always
  eventually use VC k+1's reserve downstream, and VCs increase strictly
  along any path).

Accounting: a packet draws its buffer slot from the shared pool when it
fits, otherwise from its VC's reserve (`Packet.buf_shared` records the
choice so the release is symmetric).
"""

from __future__ import annotations

from typing import List

from ..sim import Credits, Simulator

__all__ = ["VcBufferPool"]


class VcBufferPool:
    """One wire's receive buffer: shared bytes + per-VC reserved bytes.

    Waiter management is deduplicated by callback identity: a blocked
    port registers once, no matter how many times it re-arms before the
    next release, so listener lists stay bounded by the number of ports
    sharing the pool (an earlier one-shot-list design leaked hundreds of
    thousands of stale entries under saturation).
    """

    __slots__ = ("shared", "reserved", "_waiters", "_in_use", "watchers")

    def __init__(
        self,
        sim: Simulator,
        shared_bytes: float,
        reserve_bytes: float,
        n_vcs: int,
    ):
        if shared_bytes <= 0 or reserve_bytes <= 0:
            raise ValueError("buffer slices must be positive")
        self.shared = Credits(sim, shared_bytes)
        self.reserved: List[Credits] = [
            Credits(sim, reserve_bytes) for _ in range(n_vcs)
        ]
        self._waiters: dict = {}
        # Maintained occupancy counter: `in_use` sits on the adaptive-
        # routing hot path (read once per candidate port per routed
        # packet), so it must not sum n_vcs+1 Credits objects per read.
        # Sizes are integer-valued floats, so += / -= stays exact.
        self._in_use: float = 0.0
        # OutputPorts whose cached congestion_score reads this pool's
        # occupancy; every _in_use mutation marks their caches stale.
        # One entry for a dedicated wire buffer, several when ports share
        # a switch-wide ingress pool (Aries-style shared_switch_buffers).
        self.watchers: list = []

    def can_fit(self, vc: int, size: float) -> bool:
        return (
            self.shared.available >= size or self.reserved[vc].available >= size
        )

    def acquire(self, pkt) -> bool:
        """Take buffer space for *pkt* (marks where it came from).

        Runs once per wire transmission, so the two
        ``Credits.try_acquire`` bodies (FIFO-waiter guard + availability
        check + decrement) are inlined here.
        """
        size = pkt.size
        shared = self.shared
        if not shared._waiters and shared.available >= size:
            shared.available -= size
            pkt.buf_shared = True
        else:
            res = self.reserved[pkt.vc]
            if not res._waiters and res.available >= size:
                res.available -= size
                pkt.buf_shared = False
            else:
                return False
        self._in_use += size
        for port in self.watchers:
            port._score_ok = False
        return True

    def release(self, size: float, vc: int, was_shared: bool) -> None:
        self._in_use -= size
        for port in self.watchers:
            port._score_ok = False
        # Inlined Credits.release (one call per wire transmission): the
        # over-release invariant, FIFO waiter drain, and one-shot
        # listeners, verbatim.
        c = self.shared if was_shared else self.reserved[vc]
        c.available += size
        if c.available > c.total + 1e-9:
            raise RuntimeError(
                f"credit over-release: {c.available} > total {c.total}"
            )
        while c._waiters and c.available >= c._waiters[0][1]:
            ev, amt = c._waiters.popleft()
            c.available -= amt
            ev.succeed()
        if c._release_listeners:
            listeners, c._release_listeners = c._release_listeners, []
            for fn in listeners:
                fn()
        if self._waiters:
            waiters, self._waiters = self._waiters, {}
            for fn in waiters.values():
                fn()

    def notify_on_release(self, vc: int, fn) -> None:
        """One-shot wakeup on the next release (dedup by callback id)."""
        self._waiters[id(fn)] = fn

    @property
    def in_use(self) -> float:
        return self._in_use

    @property
    def total(self) -> float:
        return self.shared.total + sum(r.total for r in self.reserved)

    def occupancy_breakdown(self) -> tuple:
        """``(maintained, recomputed)`` occupancy in bytes.

        *maintained* is the O(1) ``_in_use`` counter the routing hot
        path reads; *recomputed* re-derives the same quantity from the
        underlying Credits objects.  The invariant auditor
        (repro.validate) cross-checks the two — any drift means a
        credit was acquired or released without the counter update.
        """
        recomputed = self.shared.in_use + sum(r.in_use for r in self.reserved)
        return self._in_use, recomputed
