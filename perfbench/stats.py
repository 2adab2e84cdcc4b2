"""Small statistics helpers shared by the workloads and the self-check."""

from __future__ import annotations

import math
import resource
import statistics
from typing import List, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def quartiles(values: Sequence[float]) -> List[float]:
    """(Q1, median, Q3), as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 if median 0)."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
