"""The fault injector: applies a schedule to a running fabric.

:class:`FaultInjector` is the attach point of the whole subsystem.  On
construction it

* registers itself as ``fabric.fault_injector`` and as a probe point
  of every attached observer (:mod:`repro.probe`);
* arms :class:`~repro.faults.reliability.EndToEndReliability` on every
  NIC (unless ``reliability=False``), so fail-stop losses are repaired
  end-to-end;
* schedules one simulator event per :class:`FaultEvent`, dispatching to
  the fabric's fault-control primitives at the event's time.

With an empty (or no) schedule the data path never sees a fault: runs
produce identical packet latencies and delivery counts to an unfaulted
fabric (the reliability timers add bookkeeping events, but those never
mutate traffic state when every ack beats its RTO).
"""

from __future__ import annotations

from typing import Optional

from .events import FaultEvent
from .reliability import EndToEndReliability
from .schedule import FaultSchedule

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives a :class:`FaultSchedule` against a built fabric."""

    def __init__(
        self,
        fabric,
        schedule: Optional[FaultSchedule] = None,
        *,
        reliability: bool = True,
        base_rto_ns: float = 1_000_000.0,
        backoff: float = 2.0,
        max_rto_ns: float = 8_000_000.0,
        max_retries: Optional[int] = None,
    ):
        if fabric.fault_injector is not None:
            raise RuntimeError("fabric already has a FaultInjector attached")
        if schedule is None:
            schedule = FaultSchedule(())
        elif not isinstance(schedule, FaultSchedule):
            schedule = FaultSchedule(schedule)
        self.fabric = fabric
        self.sim = fabric.sim
        self.schedule = schedule
        #: observer slot (repro.probe); None = zero-overhead path
        self.probe = None
        self.events_applied = 0
        fabric.fault_injector = self
        if reliability:
            for nic in fabric.nics:
                nic.retrans = EndToEndReliability(
                    nic,
                    base_rto_ns=base_rto_ns,
                    backoff=backoff,
                    max_rto_ns=max_rto_ns,
                    max_retries=max_retries,
                )
        for ev in schedule.events:
            self.sim.schedule_at(ev.t, self._apply, ev)
        for handle in fabric.probe_handles:
            handle.offer(self)

    def _apply(self, ev: FaultEvent) -> None:
        f = self.fabric
        # The adaptive router drops its live candidate tables whenever the
        # topology's health_epoch moves; every fault-control primitive
        # bumps it.  Snapshot it here and backstop below so a future action
        # that forgets the bump can never leave a stale table entry live.
        epoch_before = f.topology.health_epoch
        if ev.action == "link_fail":
            f.fail_link(ev.target)
        elif ev.action == "link_recover":
            f.restore_link(ev.target)
        elif ev.action == "link_degrade":
            f.degrade_link(ev.target, ev.value)
        elif ev.action == "link_error":
            f.set_link_error_rate(ev.target, ev.value)
        elif ev.action == "switch_fail":
            f.fail_switch(ev.target)
        elif ev.action == "switch_recover":
            f.restore_switch(ev.target)
        else:  # pragma: no cover - FaultEvent validates actions
            raise ValueError(f"unknown fault action {ev.action!r}")
        if f.topology.health_epoch == epoch_before:
            f.topology.bump_health_epoch()
        self.events_applied += 1
        if self.probe is not None:
            self.probe.fault(self, ev)

    # -- aggregate reliability statistics -----------------------------------

    def retransmits(self) -> int:
        return sum(
            n.retrans.retransmits for n in self.fabric.nics if n.retrans
        )

    def dup_pkts(self) -> int:
        return sum(n.retrans.dup_pkts for n in self.fabric.nics if n.retrans)

    def dup_acks(self) -> int:
        return sum(n.retrans.dup_acks for n in self.fabric.nics if n.retrans)

    def giveups(self) -> int:
        return sum(n.retrans.giveups for n in self.fabric.nics if n.retrans)

    def outstanding(self) -> int:
        """Packets currently awaiting their end-to-end ack, fabric-wide."""
        return sum(
            len(n.retrans.outstanding) for n in self.fabric.nics if n.retrans
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector({len(self.schedule)} events, "
            f"{self.events_applied} applied)"
        )
