"""Deterministic capped-exponential retry backoff for campaign cells.

A failed cell is not retried immediately: transient causes (an OOM kill
under memory pressure, a machine-wide stall that tripped a wall-clock
watchdog) need breathing room, and a whole pool's worth of failures
retrying in lockstep would just reproduce the pressure that killed them.
The classic answer is exponential backoff with jitter — but random
jitter would make campaign wall-clock behaviour unreproducible, so the
jitter here is *derived from the cell's identity* with the same
:func:`~repro.sim.rng.stable_hash` machinery every other seed in the
package uses.  The schedule for a given cell is therefore a pure
function of ``(cell identity, attempt number)``: the same across runs,
processes, and machines, which is what the hypothesis property tests
pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..sim.rng import stable_hash

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget + backoff shape for one campaign.

    ``retries`` is the number of *additional* attempts after the first
    (so a cell runs at most ``retries + 1`` times before quarantine).
    The delay before retry ``attempt`` (1-based: the attempt that just
    failed) is ``min(cap_delay_s, base_delay_s * 2**(attempt-1))``
    scaled into ``[1 - jitter, 1]`` by a deterministic per-cell
    fraction.
    """

    retries: int = 2
    base_delay_s: float = 0.25
    cap_delay_s: float = 8.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        for name in ("base_delay_s", "cap_delay_s"):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails this too
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_s(self, cell_key: object, attempt: int) -> float:
        """Backoff before re-running *cell_key* after failed *attempt*.

        Pure function of its arguments — no RNG state, no clock — so a
        cell's backoff schedule is identical wherever it is computed.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        raw = min(self.cap_delay_s, self.base_delay_s * (2.0 ** (attempt - 1)))
        frac = (stable_hash("backoff", cell_key, attempt) % (2**32)) / 2.0**32
        return raw * (1.0 - self.jitter + self.jitter * frac)

    def schedule(self, cell_key: object) -> List[float]:
        """The full backoff schedule for *cell_key* (one delay per retry)."""
        return [self.delay_s(cell_key, a) for a in range(1, self.retries + 1)]
