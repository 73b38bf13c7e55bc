"""Order statistics of a run's samples."""

from __future__ import annotations

import math
import statistics


def summarize(values) -> dict:
    """Median, quartiles and sample count; quartiles as ``statistics``
    computes them (exclusive method), equal to the value for one sample."""
    values = sorted(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def tail_percentile(values, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (percent, value), or None when there are too few samples.
    The value is the order statistic with ``beyond`` samples after it.
    """
    values = sorted(values)
    n = len(values)
    if n <= beyond:
        return None
    k = n - beyond - 1
    return math.floor(100.0 * (k + 1) / n), values[k]
