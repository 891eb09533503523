"""Cross-layer correctness tooling (the validation counterpart to
telemetry and fault injection).

Three independent parts, all usable from ``python -m repro validate``:

* :mod:`repro.validate.invariants` — a runtime **invariant auditor**:
  pluggable checkers registered against fabric/engine hooks that assert
  credit conservation per output port, buffer-occupancy bounds, packet
  conservation, monotonic per-entity timestamps, live routing tables,
  the link liveness rule and routing reachability.  Violations raise
  structured :class:`InvariantViolation` reports (entity, tick, counter
  snapshot).  Attachment follows the telemetry/faults pattern: a fabric
  without an auditor runs bit-identically to one built before this
  module existed.
* :mod:`repro.validate.differ` — a **determinism differ**: dual-run
  event-order fingerprinting that localizes the first divergent event
  and diffs the final telemetry snapshots, instead of just failing a hash.
* :mod:`repro.validate.lint` — a **correctness lint** pass over the
  source tree encoding repo conventions (stable_hash-derived RNG
  streams, no wall-clock reads in sim code, no mutable default args).
"""

from .differ import (
    DivergenceReport,
    EventTrace,
    bisection_scenario,
    determinism_diff,
)
from .invariants import (
    CreditConservationChecker,
    InvariantAuditor,
    InvariantViolation,
    OccupancyChecker,
    PacketConservationChecker,
    RoutingHealthChecker,
    TimestampChecker,
    default_checkers,
)
from .lint import LintIssue, lint_file, lint_paths, lint_source

__all__ = [
    "InvariantAuditor",
    "InvariantViolation",
    "CreditConservationChecker",
    "OccupancyChecker",
    "PacketConservationChecker",
    "TimestampChecker",
    "RoutingHealthChecker",
    "default_checkers",
    "EventTrace",
    "DivergenceReport",
    "determinism_diff",
    "bisection_scenario",
    "LintIssue",
    "lint_file",
    "lint_paths",
    "lint_source",
]
