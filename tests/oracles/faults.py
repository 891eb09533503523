"""Fault-schedule oracle: does every fault get undone by the end?

:func:`ends_restored` replays a :class:`~repro.faults.FaultSchedule`'s
events as fail/degrade/error state per target.  A schedule that ends
restored guarantees (with end-to-end reliability armed) that the fabric
eventually drains and every injected packet is accounted for, which is
the premise of the fault-recovery properties.
"""

from __future__ import annotations

__all__ = ["ends_restored"]


def ends_restored(schedule) -> bool:
    """True iff no link or switch is down, degraded or erring after the
    last event of *schedule*."""
    down_links: set = set()
    down_switches: set = set()
    degraded: set = set()
    erred: set = set()
    for ev in schedule.events:
        if ev.action == "link_fail":
            down_links.add(ev.target)
        elif ev.action == "link_recover":
            # restore_link also resets bandwidth and error rate
            down_links.discard(ev.target)
            degraded.discard(ev.target)
            erred.discard(ev.target)
        elif ev.action == "link_degrade":
            if ev.value < 1.0:
                degraded.add(ev.target)
            else:
                degraded.discard(ev.target)
        elif ev.action == "link_error":
            if ev.value > 0.0:
                erred.add(ev.target)
            else:
                erred.discard(ev.target)
        elif ev.action == "switch_fail":
            down_switches.add(ev.target)
        elif ev.action == "switch_recover":
            down_switches.discard(ev.target)
    return not (down_links or down_switches or degraded or erred)
