"""Straight-line reference credit pool (executable specification).

:class:`ReferencePool` wakes waiters the way every release did before
the gated early exit: it detaches the waiter dict, walks all of it, puts
back each gated waiter whose head still fits nowhere and calls every
other one, which re-registers into the fresh dict if it is still
blocked.  ``tests/test_pool_wake_equivalence.py`` drives ports on one
shared pool through the same scenario on this and on
:class:`~repro.network.buffers.VcBufferPool` and requires the same
wakeups in the same order and the same waiters left behind.
"""

from __future__ import annotations

from repro.network.buffers import VcBufferPool

__all__ = ["ReferencePool"]


class ReferencePool(VcBufferPool):
    """A pool whose release rebuilds its waiter dict on every walk."""

    __slots__ = ()

    def release(self, size: float, vc: int, was_shared: bool) -> None:
        self._in_use -= size
        if was_shared:
            self.shared_avail += size
            avail, total = self.shared_avail, self.shared_total
        else:
            self.reserve_avail[vc] += size
            avail, total = self.reserve_avail[vc], self.reserve_total
        if avail > total + 1e-9:
            raise RuntimeError(f"credit over-release: {avail} > total {total}")
        waiters, self._waiters = self._waiters, {}
        for fn, head in waiters.items():
            if head is not None and not self.can_fit(head.vc, head.size):
                self._waiters[fn] = head
            else:
                fn()
