"""Percentiles and spreads used by the benchmark and its steadiness mode."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method
    of ``statistics.quantiles``); exact at 0 and 100."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the pct-th percentile of ``count`` samples."""
    return count - math.ceil(count * pct / 100 - 1e-9)


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with at least ten samples beyond
    it, or None when there are too few samples for any."""
    for pct in TAILS:
        if beyond(count, pct) >= 10:
            return pct
    return None


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance over the
    median), with the quartiles as ``statistics.quantiles(values, n=4)``
    gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf
