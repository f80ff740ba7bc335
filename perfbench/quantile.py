"""Order statistics the benchmark reports.

``tail`` implements the reporting rule for latencies: the highest
percentile on a fixed ladder that still has at least ten samples beyond
it.  A ladder (rather than "exactly ten from the top") keeps the
reported percentile the same from run to run when the sample count
moves by a few.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Percentiles ``tail`` may report, highest first.
LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, samples beyond)`` for the highest ladder
    percentile with at least :data:`MIN_BEYOND` samples beyond it, or
    None when even the median has fewer."""
    n = len(samples)
    for pct in LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct, percentile(samples, pct), beyond(n, pct)
    return None


def median(samples: Sequence[float]) -> float:
    """Median (mean of the middle pair for an even count)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
