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

Credit waits.  A port blocked on credit registers on the pool through
:meth:`VcBufferPool.notify_on_release`.  A wakeup carries bookkeeping
only if something can observe it, so a blocked single-class port (one
uncapped class) hands over the head packet it is blocked on, a *gated*
wait that a release skips while that head fits nowhere, unless its
probe records credit stalls (:func:`repro.probe.records_stalls`).  A
wakeup that finds the head still blocked only re-arms the port on the
same head; LLR draws only when a frame is sent and a down port is never
armed, so a stall-recording probe (which sees the wakeup as a
``stall_end``/``stall_begin`` pair) is the one observer that can tell.
Such a port, and every port with several or capped classes, waits
*ungated* (None) and is called on every release.

The waiter invariant: every gated waiter belongs to an armed port whose
head fits neither the shared region nor its VC's reserve.  A gated
waiter registers only with such a head; between releases only
acquisitions happen; and each release walk leaves registered only heads
that still fit nowhere.  So just before any release, no gated head
fits.  A release grows exactly one slice (the shared region, or VC v's
reserve), so only heads that fit that slice can move, and the ports it
wakes take from that slice.  Once the slice is back at or below its
pre-release level, no later gated head fits either, so a release on a
pool whose waiters are all gated stops there: its cost follows the
ports it wakes, not the ports waiting on the switch.  It removes the
woken entries in place.  That leaves the order a full walk would: a
woken gated port sends its head and registers nothing during the walk,
and a gated entry is never stale (an armed port leaves the dict only
when this pool wakes it, and its entry turns ungated in place when it
fails or gains a stall-recording probe).  A pool holding an ungated
waiter runs the *rebuild walk* instead, which visits every waiter.  The
invariant auditor (repro.validate) checks the invariant on every sweep;
its checkers record no stalls, so an audited port waits gated.

The same invariant lets ``OutputPort.enqueue`` skip arbitration on an
armed single-class port: the append leaves the head unchanged, and the
head fits nothing.

Both rules assume one FIFO per traffic class, so one head per port.
Per-VC output FIFOs (the fix for a VC-1 head blocking VC-2 packets
behind it) give a port one head per VC, and must revisit them: "an
append leaves the head unchanged" and "the gated head fits nothing"
then become per-VC statements.
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
    pool.  *head* is the packet a gated waiter is blocked on, or None
    for an ungated one, which wakes on every release.  A release walks
    the entries in order: a gated entry whose head still fits nowhere
    keeps its place, uncalled; every other one is removed and called,
    and one that re-registers during its call keeps its place too.  A
    pool with an ungated waiter runs the rebuild walk: it rebuilds the
    dict on every release, visiting every waiter.  While every waiter
    is gated, the walk removes the woken entries in place and stops
    once the slice the release grew is back at its pre-release level
    (the module docstring says why that wakes exactly the ports a full
    walk would).  So a waiter may pass a head only while it is armed on
    that head, the head fits nothing, and nothing can observe a wakeup
    that finds it blocked: a single-class port whose probe records no
    stalls.
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
        waiters = self._waiters
        if not waiters:
            return
        if None in waiters.values():
            # An ungated waiter is called on every release: rebuild the
            # dict in wake order, carrying over every gated head that
            # still fits nowhere and calling every other entry (a call
            # may re-register its own).
            self._waiters = {}
            for fn, head in waiters.items():
                # inlined can_fit(), against what earlier waiters left
                if head is not None and (
                    self.shared_avail < head.size
                    and self.reserve_avail[head.vc] < head.size
                ):
                    self._waiters[fn] = head
                else:
                    fn()
            return
        # Every waiter is gated: wake the first head that fits, until the
        # grown slice is back at its pre-release level (module docstring).
        # A woken port sends its head and registers nothing, so the dict
        # is walked live; each rescan starts over a prefix that a walk,
        # which only takes bytes, cannot have unblocked.
        floor = avail - size
        while True:
            for fn, head in waiters.items():
                if (
                    self.shared_avail >= head.size
                    or self.reserve_avail[head.vc] >= head.size
                ):
                    break
            else:
                return
            del waiters[fn]
            fn()
            if (
                self.shared_avail if was_shared else self.reserve_avail[vc]
            ) <= floor:
                return

    def notify_on_release(self, head, fn) -> None:
        """One-shot wakeup on the next release that could fit *head*
        (every release when *head* is None).

        A caller passes a *head* only when nothing can observe a wakeup
        that finds it still blocked (a single-class port whose probe
        records no stalls), and then promises the waiter invariant
        (module docstring): *head* fits neither slice now, the callback
        sends it without registering again when a release calls it, and
        until then the caller changes the entry only to None.  The early
        exit of :meth:`release` rests on that promise.

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
