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

from typing import List, Optional

__all__ = ["VcBufferPool"]


class VcBufferPool:
    """One wire's receive buffer: shared bytes + per-VC reserved bytes.

    Every slice is a pair of plain numbers on the pool — its size and
    its free bytes (``shared_total``/``shared_avail`` for the shared
    region, ``reserve_total``/``reserve_avail[vc]`` for each VC's
    reserve) — so a fabric pays one object per wire buffer, not one
    per slice.  Nothing ever blocks on a slice directly: a stalled port
    waits on the pool through :meth:`notify_on_release`.

    Waiters are one-shot entries ``callback -> head`` in wake order, one
    per callback, so the dict stays bounded by the ports sharing the
    pool.  *head* is the packet the waiter is blocked on, or None to
    wake on every release.  A release walks the entries in order: one
    whose head still fits nowhere stays registered, in place, uncalled;
    every other one is called (and re-registers if still blocked).  So
    a waiter may pass a head only while a wakeup that finds the head
    blocked would be a no-op for it.
    """

    __slots__ = (
        "shared_total",
        "shared_avail",
        "reserve_total",
        "reserve_avail",
        "_waiters",
        "_in_use",
        "_release",
    )

    def __init__(self, shared_bytes: float, reserve_bytes: float, n_vcs: int):
        if shared_bytes <= 0 or reserve_bytes <= 0:
            raise ValueError("buffer slices must be positive")
        self.shared_total = shared_bytes
        self.shared_avail = shared_bytes
        self.reserve_total = reserve_bytes
        self.reserve_avail: List[float] = [reserve_bytes] * n_vcs
        #: callback -> head packet it waits to fit (None: any release)
        self._waiters: dict = {}
        # Maintained occupancy counter: `in_use` sits on the adaptive-
        # routing hot path (read once per candidate port per routed
        # packet), so it must not sum n_vcs+1 slices per read.  Sizes
        # are integer-valued floats, so += / -= stays exact.
        self._in_use: float = 0.0
        #: :meth:`release` bound once: the credit-return event handler
        #: that ports and NICs schedule, one per packet per hop
        self._release = self.release

    def can_fit(self, vc: int, size: float) -> bool:
        return self.shared_avail >= size or self.reserve_avail[vc] >= size

    def acquire(self, pkt) -> bool:
        """Take buffer space for *pkt* (marks where it came from)."""
        size = pkt.size
        if self.shared_avail >= size:
            self.shared_avail -= size
            pkt.buf_shared = True
        else:
            reserve = self.reserve_avail
            vc = pkt.vc
            if reserve[vc] >= size:
                reserve[vc] -= size
                pkt.buf_shared = False
            else:
                return False
        self._in_use += size
        return True

    def release(self, size: float, vc: int, was_shared: bool) -> None:
        self._in_use -= size
        if was_shared:
            avail = self.shared_avail = self.shared_avail + size
            total = self.shared_total
        else:
            reserve = self.reserve_avail
            avail = reserve[vc] = reserve[vc] + size
            total = self.reserve_total
        if avail > total + 1e-9:
            raise RuntimeError(f"credit over-release: {avail} > total {total}")
        if self._waiters:
            waiters, self._waiters = self._waiters, {}
            for fn, head in waiters.items():
                # inlined can_fit(), against what earlier waiters left
                if head is not None and (
                    self.shared_avail < head.size
                    and self.reserve_avail[head.vc] < head.size
                ):
                    self._waiters[fn] = head
                else:
                    fn()

    def notify_on_release(self, head, fn) -> None:
        """One-shot wakeup on the next release that could fit *head*
        (every release when *head* is None).

        Deduplicated by the callback itself: ``port._retry`` is a fresh
        bound method on every access, but bound methods hash and compare
        by ``__self__``/``__func__``, so a port re-arming while still
        registered keeps its one entry (and its place in wake order).
        """
        self._waiters[fn] = head

    @property
    def in_use(self) -> float:
        return self._in_use

    @property
    def total(self) -> float:
        return self.shared_total + self.reserve_total * len(self.reserve_avail)

    def slice_in_use(self, vc: Optional[int] = None) -> float:
        """Bytes held in one slice: the shared region (*vc* None) or
        VC *vc*'s reserve."""
        if vc is None:
            return self.shared_total - self.shared_avail
        return self.reserve_total - self.reserve_avail[vc]

    def occupancy_breakdown(self) -> tuple:
        """``(maintained, recomputed)`` occupancy in bytes.

        *maintained* is the O(1) ``_in_use`` counter the routing hot
        path reads; *recomputed* re-derives the same quantity from the
        per-slice free-byte counters.  The invariant auditor
        (repro.validate) cross-checks the two — any drift means a slice
        was charged or credited without the counter update.
        """
        recomputed = self.slice_in_use() + sum(
            self.slice_in_use(vc) for vc in range(len(self.reserve_avail))
        )
        return self._in_use, recomputed
