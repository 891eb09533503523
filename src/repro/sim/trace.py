"""Measurement recorder for simulations: :class:`RateMeter`, a byte
counter windowed into a bandwidth time series (the paper's Figure 14).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["RateMeter"]


class RateMeter:
    """Counts bytes and reports bandwidth per fixed window.

    ``add(t, nbytes)`` attributes *nbytes* to the window containing *t*;
    ``series()`` yields (window midpoint ns, bytes/ns) pairs.
    """

    __slots__ = ("window_ns", "_bins")

    def __init__(self, window_ns: float):
        if window_ns <= 0:
            raise ValueError("window must be positive")
        self.window_ns = window_ns
        self._bins: Dict[int, float] = {}

    def add(self, t: float, nbytes: float) -> None:
        b = int(t // self.window_ns)
        self._bins[b] = self._bins.get(b, 0.0) + nbytes

    def series(self, t_end: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        if not self._bins:
            return np.array([]), np.array([])
        last = max(self._bins)
        if t_end is not None:
            last = max(last, int(t_end // self.window_ns))
        idx = np.arange(0, last + 1)
        rates = np.array([self._bins.get(int(i), 0.0) for i in idx]) / self.window_ns
        mids = (idx + 0.5) * self.window_ns
        return mids, rates

    def total_bytes(self) -> float:
        return float(sum(self._bins.values()))
