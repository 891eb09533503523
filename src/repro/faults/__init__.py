"""Fault injection and degraded-fabric resilience (paper §II-F).

The paper's reliability story has two halves: link-level retry (LLR)
repairs transient corruption locally — modelled by the per-port
``frame_error_rate`` machinery in :mod:`repro.network.switch` — and the
fabric as a whole "keeps serving traffic at reduced capacity" when
links or switches fail outright.  This package models the second half:

* :mod:`~repro.faults.events` / :mod:`~repro.faults.schedule` — a
  deterministic, seedable timeline of fault events (link fail-stop and
  recovery, flapping, bandwidth degradation, BER storms, whole-switch
  failure);
* :mod:`~repro.faults.injector` — applies a schedule to a built
  :class:`~repro.network.fabric.Fabric` through its fault-control
  primitives, which set the ports' ``up`` flags (what the data plane
  obeys and the fault-aware
  :class:`~repro.core.adaptive_routing.AdaptiveRouter` builds its live
  tables from) and bump the topology's ``health_epoch``;
* :mod:`~repro.faults.reliability` — the NIC-side end-to-end
  retransmission timer with exponential backoff and receiver
  deduplication that makes fail-stop losses invisible to applications;
* :mod:`~repro.faults.chaos` — canned degraded-fabric experiments
  (``python -m repro chaos``).

Everything is opt-in via :meth:`Fabric.attach_faults`.  A fabric without
an injector runs bit-identically to a build that never imported this
package: the only hot-path costs are ``is not None`` / ``.up`` checks.
"""

from .chaos import chaos_run, degradation_curve
from .events import (
    FaultEvent,
    link_degrade,
    link_error,
    link_fail,
    link_recover,
    switch_fail,
    switch_recover,
)
from .injector import FaultInjector
from .reliability import EndToEndReliability
from .schedule import FaultSchedule

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "EndToEndReliability",
    "chaos_run",
    "degradation_curve",
    "link_fail",
    "link_recover",
    "link_degrade",
    "link_error",
    "switch_fail",
    "switch_recover",
]
