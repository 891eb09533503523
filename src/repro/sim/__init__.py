"""Self-contained discrete-event simulation engine (SimPy-style).

The substrate every other subsystem runs on: a deterministic event queue
(:class:`Simulator`), the one tick rule for periodic samplers
(:class:`PeriodicTick`), generator-based processes (:class:`Process`), a
stable hash for seeding (:func:`stable_hash`) and a windowed byte
counter (:class:`RateMeter`).
"""

from .engine import (
    Event,
    PeriodicTick,
    SimStall,
    Simulator,
    StopSimulation,
    default_watchdog,
)
from .process import AllOf, Process
from .rng import stable_hash
from .trace import RateMeter

__all__ = [
    "Simulator",
    "Event",
    "PeriodicTick",
    "StopSimulation",
    "SimStall",
    "default_watchdog",
    "Process",
    "AllOf",
    "stable_hash",
    "RateMeter",
]
