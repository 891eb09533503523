"""Time-stepped fluid simulation of jobs sharing a bottleneck (Fig. 14).

Jobs are fluid flows with a start time, a byte volume (or open-ended
duration), and a traffic class.  At every instant the bottleneck
capacity is divided by :func:`~repro.flowsim.tc_alloc.allocate_classes`
across classes and max-min within each class.  The simulation advances
between rate-changing events (job start, job completion) analytically,
so the output series is exact, not discretized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.traffic_classes import TrafficClass
from .tc_alloc import allocate_classes, split_within_class

__all__ = ["FluidJob", "FluidBottleneck"]

_EPS = 1e-9


@dataclass
class FluidJob:
    """One job: starts at *start_ns*, moves *nbytes* (None = runs until
    *end_ns*), in traffic class *tc*, with an optional per-job rate cap
    (e.g. the sum of its nodes' injection bandwidth)."""

    start_ns: float
    nbytes: Optional[float] = None
    end_ns: Optional[float] = None
    tc: int = 0
    rate_cap: Optional[float] = None
    name: str = ""
    remaining: float = field(init=False, default=0.0)
    finished_at: Optional[float] = field(init=False, default=None)
    #: recorded (time, rate) steps: rate held from this time until next entry
    rate_steps: List[Tuple[float, float]] = field(init=False, default_factory=list)

    def __post_init__(self):
        if self.nbytes is None and self.end_ns is None:
            raise ValueError("job needs either a byte volume or an end time")
        self.remaining = float(self.nbytes) if self.nbytes is not None else float("inf")

    def active_at(self, t: float) -> bool:
        if t < self.start_ns - _EPS:
            return False
        if self.finished_at is not None and t >= self.finished_at - _EPS:
            return False
        if self.end_ns is not None and t >= self.end_ns - _EPS:
            return False
        return True

    def demand(self) -> float:
        cap = self.rate_cap if self.rate_cap is not None else float("inf")
        return cap

    def rate_at(self, t: float) -> float:
        """Rate in effect at time *t* (0 outside the job's lifetime)."""
        rate = 0.0
        for step_t, step_r in self.rate_steps:
            if step_t - _EPS <= t:
                rate = step_r
            else:
                break
        return rate


class FluidBottleneck:
    """Shared capacity + traffic classes + jobs; run() fills in rates."""

    def __init__(self, capacity: float, classes: Sequence[TrafficClass]):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.classes = list(classes)
        self.jobs: List[FluidJob] = []

    def add_job(self, job: FluidJob) -> FluidJob:
        if not (0 <= job.tc < len(self.classes)):
            raise ValueError(f"traffic class {job.tc} not configured")
        self.jobs.append(job)
        return job

    def _rates_at(self, t: float) -> List[float]:
        """Instantaneous per-job rates given who is active at *t*."""
        active = [j for j in self.jobs if j.active_at(t)]
        per_class_demand = [0.0] * len(self.classes)
        for j in active:
            per_class_demand[j.tc] += j.demand()
        class_rates = allocate_classes(self.capacity, self.classes, per_class_demand)
        rates = [0.0] * len(self.jobs)
        for tc in range(len(self.classes)):
            members = [j for j in active if j.tc == tc]
            if not members:
                continue
            split = split_within_class(class_rates[tc], [j.demand() for j in members])
            for j, r in zip(members, split):
                rates[self.jobs.index(j)] = r
        return rates

    def run(self, until: Optional[float] = None) -> float:
        """Advance until all volume-bounded jobs finish (or *until*).

        Returns the final simulation time.
        """
        t = 0.0
        horizon = until if until is not None else float("inf")
        for _ in range(100_000):
            events = [j.start_ns for j in self.jobs if j.start_ns > t + _EPS]
            events += [
                j.end_ns
                for j in self.jobs
                if j.end_ns is not None and j.end_ns > t + _EPS
            ]
            rates = self._rates_at(t)
            # Completion times for volume-bounded jobs at current rates.
            for j, r in zip(self.jobs, rates):
                if j.active_at(t) and j.nbytes is not None and r > _EPS:
                    events.append(t + j.remaining / r)
            next_t = min([e for e in events if e > t + _EPS], default=None)
            if next_t is None or next_t > horizon:
                next_t = horizon
            for j, r in zip(self.jobs, rates):
                if j.active_at(t):
                    if not j.rate_steps or abs(j.rate_steps[-1][1] - r) > _EPS:
                        j.rate_steps.append((t, r))
                    if j.nbytes is not None:
                        j.remaining -= r * (next_t - t)
                        if j.remaining <= _EPS and j.finished_at is None:
                            j.remaining = 0.0
                            j.finished_at = next_t
                            j.rate_steps.append((next_t, 0.0))
                elif j.rate_steps and j.rate_steps[-1][1] != 0.0:
                    j.rate_steps.append((t, 0.0))
            t = next_t
            unfinished = [
                j
                for j in self.jobs
                if j.nbytes is not None and j.finished_at is None
            ]
            open_ended_pending = [
                j
                for j in self.jobs
                if j.nbytes is None and (j.end_ns is None or j.end_ns > t + _EPS)
            ]
            if t >= horizon - _EPS:
                break
            if not unfinished and not open_ended_pending:
                break
        # Close the rate series of jobs that ended exactly at the stop time.
        for j in self.jobs:
            if j.rate_steps and j.rate_steps[-1][1] != 0.0 and not j.active_at(t):
                close_t = j.end_ns if j.end_ns is not None else t
                j.rate_steps.append((min(close_t, t), 0.0))
        return t
