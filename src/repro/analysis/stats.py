"""Sample summaries for the figures (paper §III-A).

The paper repeats each microbenchmark until the 95% confidence interval
of the median is within 5% of the median (Hoefler & Belli [52]).  A
simulated run is deterministic at a fixed seed, so every bench runs its
cells once with a fixed number of iterations and summarizes the spread
across those iterations:

* :func:`summarize` — mean, quartiles, extremes and tail percentiles;
* :func:`percentile` / :func:`percentiles` — one or several percentiles;
* :func:`quartile_whiskers` — the box-and-whisker convention of Fig. 4.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

__all__ = [
    "summarize",
    "percentile",
    "percentiles",
    "quartile_whiskers",
]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    a = np.asarray(samples, dtype=float)
    q1, med, q3 = np.percentile(a, [25, 50, 75])
    return {
        "n": int(a.size),
        "mean": float(a.mean()),
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "min": float(a.min()),
        "max": float(a.max()),
        "p95": float(np.percentile(a, 95)),
        "p99": float(np.percentile(a, 99)),
        "std": float(a.std(ddof=1)) if a.size > 1 else 0.0,
    }


def percentile(samples: Sequence[float], q: float) -> float:
    """Single percentile (numpy linear interpolation), as a float."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def percentiles(
    samples: Sequence[float], qs: Sequence[float] = (50, 95, 99)
) -> Dict[float, float]:
    """Several percentiles at once; NaN-filled when *samples* is empty."""
    a = np.asarray(samples, dtype=float)
    if a.size == 0:
        return {q: float("nan") for q in qs}
    vals = np.percentile(a, list(qs))
    return {q: float(v) for q, v in zip(qs, vals)}


def quartile_whiskers(samples: Sequence[float]) -> Dict[str, float]:
    """The paper's Fig. 4 box convention: S is the smallest sample above
    Q1 - 1.5 IQR, L the largest below Q3 + 1.5 IQR."""
    a = np.asarray(samples, dtype=float)
    q1, med, q3 = np.percentile(a, [25, 50, 75])
    iqr = q3 - q1
    above = a[a >= q1 - 1.5 * iqr]
    below = a[a <= q3 + 1.5 * iqr]
    return {
        "S": float(above.min()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "L": float(below.max()),
    }
