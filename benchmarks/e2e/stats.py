"""Aggregation and bound arithmetic (no I/O, no clocks)."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return int(n * (100.0 - q) / 100.0)


def median_of_rounds(per_round: Iterable[float]) -> float:
    """One value per measured round -> the run's value.  A median, so one
    round that hit a slow stretch of the host does not move it."""
    return statistics.median(per_round)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    figure the benchmark contract is judged by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def disagreement(a: float, b: float) -> float:
    """Symmetric relative gap between two medians of the same code."""
    return abs(a - b) / min(abs(a), abs(b)) if a and b else float(a != b)


def within_bound(name: str, a: float, b: float, bounds: Dict[str, float]) -> bool:
    """Do two set medians agree within the metric's bound?  ``error_share``
    is absolute: any error at all is out of bounds."""
    if name == "error_share":
        return a == 0 and b == 0
    return disagreement(a, b) <= bounds[name]
