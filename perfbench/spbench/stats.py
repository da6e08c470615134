"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile), where the value is the k-th smallest sample
    and the percentile is 100 * k / n; None when there are too few samples
    for any percentile to have TAIL_BEYOND beyond it.
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return None
    return float(ordered[k - 1]), 100.0 * k / len(ordered)

