"""Deterministic fault schedules.

A :class:`FaultSchedule` is an immutable, time-sorted list of
:class:`~repro.faults.events.FaultEvent` objects.  Build one explicitly
from events, expand a flapping link with :meth:`FaultSchedule.flap`, or
draw a random-but-reproducible schedule from a built fabric with
:meth:`FaultSchedule.generate` (same fabric + same seed = same schedule,
always).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Tuple

from ..sim.rng import sample, stable_hash
from .events import (
    FaultEvent,
    link_degrade,
    link_error,
    link_fail,
    link_recover,
    switch_fail,
    switch_recover,
)

__all__ = ["FaultSchedule"]


class FaultSchedule:
    """An immutable, time-ordered fault scenario."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[FaultEvent] = ()):
        evs = list(events)
        for ev in evs:
            if not isinstance(ev, FaultEvent):
                raise TypeError(f"not a FaultEvent: {ev!r}")
        # Stable sort: same-time events keep their given order.
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(evs, key=lambda e: e.t)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(self.events + tuple(other))

    @property
    def end_time(self) -> float:
        """Time of the last event (0.0 for an empty schedule)."""
        return self.events[-1].t if self.events else 0.0

    # -- builders -------------------------------------------------------------

    @classmethod
    def flap(
        cls,
        key: tuple,
        t_start: float,
        t_end: float,
        period: float,
        duty_down: float = 0.5,
    ) -> "FaultSchedule":
        """A flapping link: down for ``duty_down * period``, up for the
        rest, repeating over [t_start, t_end).  Always ends restored."""
        if period <= 0:
            raise ValueError("flap period must be positive")
        if not (0.0 < duty_down < 1.0):
            raise ValueError("duty_down must be in (0, 1)")
        events: List[FaultEvent] = []
        t = t_start
        while t < t_end:
            events.append(link_fail(t, key))
            events.append(link_recover(min(t + duty_down * period, t_end), key))
            t += period
        return cls(events)

    @classmethod
    def generate(
        cls,
        fabric,
        seed: int = 0,
        n_faults: int = 3,
        t_start: float = 10_000.0,
        t_end: float = 1_000_000.0,
        kinds: Sequence[str] = ("local", "global"),
        switch_faults: int = 0,
        restore: bool = True,
    ) -> "FaultSchedule":
        """A reproducible random scenario over a built fabric's links.

        Draws *n_faults* link events (fail-stop, degrade, or BER storm)
        on distinct links of the given *kinds*, each struck in the first
        60% of the window and — when *restore* is True — recovered before
        *t_end*, plus *switch_faults* whole-switch fail/recover pairs.
        The RNG stream is derived from the seed alone, so the same
        config + seed always yields the same schedule.
        """
        if t_end <= t_start:
            raise ValueError("t_end must be after t_start")
        rng = random.Random(stable_hash("fault-schedule", seed))
        keys = [k for k in sorted(fabric.links) if fabric.links[k].kind in kinds]
        if not keys and n_faults > 0:
            raise ValueError(f"fabric has no links of kinds {kinds!r}")
        events: List[FaultEvent] = []
        span = t_end - t_start
        chosen = sample(rng.getrandbits, keys, min(n_faults, len(keys)))
        for i in range(n_faults):
            key = chosen[i] if i < len(chosen) else rng.choice(keys)
            t_f = t_start + rng.uniform(0.0, 0.6 * span)
            t_r = rng.uniform(t_f + 0.05 * span, t_end)
            mode = rng.random()
            if mode < 0.5:
                events.append(link_fail(t_f, key))
            elif mode < 0.8:
                events.append(link_degrade(t_f, key, rng.choice((0.25, 0.5, 0.75))))
            else:
                events.append(link_error(t_f, key, rng.choice((0.01, 0.05, 0.1))))
            if restore:
                events.append(link_recover(t_r, key))
        switch_ids = sample(
            rng.getrandbits,
            range(len(fabric.switches)),
            min(switch_faults, len(fabric.switches)),
        )
        for s in switch_ids:
            t_f = t_start + rng.uniform(0.0, 0.6 * span)
            events.append(switch_fail(t_f, s))
            if restore:
                events.append(
                    switch_recover(rng.uniform(t_f + 0.05 * span, t_end), s)
                )
        return cls(events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultSchedule({len(self.events)} events, end={self.end_time:g}ns)"
