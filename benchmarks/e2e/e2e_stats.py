"""The arithmetic of the e2e benchmark's metrics, kept free of I/O so the
harness self-test can check it against hand-computed cases."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between ranks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def slope(ys: Sequence[float]) -> float:
    """Least-squares slope of *ys* against their index 0, 1, 2, ..."""
    n = len(ys)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in range(n))
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in enumerate(ys))
    return sxy / sxx


def second_half_slope(ys: Sequence[float]) -> float:
    """Slope over the second half of *ys* (the first half may still be
    filling caches that never grow again)."""
    return slope(ys[len(ys) // 2 :])


def growth_exponent(
    time_small: float, time_large: float, size_small: float, size_large: float
) -> float:
    """log(t_large / t_small) / log(size_large / size_small): 1.0 is linear
    growth, 2.0 quadratic."""
    if min(time_small, time_large, size_small, size_large) <= 0 or (
        size_small == size_large
    ):
        return 0.0
    return math.log(time_large / time_small) / math.log(size_large / size_small)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def iqr_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the benchmark contract bounds."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
