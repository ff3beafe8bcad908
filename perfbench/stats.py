"""Small statistics helpers shared by the runner and the tests."""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple

#: Tail percentiles in per-mille, highest first.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def rank(permille: int, count: int) -> int:
    """Nearest-rank position (1-based) of a percentile, in exact integers."""
    return -(-permille * count // 1000)


def percentile(sorted_values: Sequence[float], permille: int) -> float:
    """Nearest-rank percentile of already sorted samples."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[max(rank(permille, len(sorted_values)), 1) - 1]


def tail_permille(count: int) -> Optional[int]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it, or ``None`` when the sample supports none."""
    for permille in TAIL_LADDER_PERMILLE:
        if count - rank(permille, count) >= MIN_BEYOND:
            return permille
    return None


def summarize(samples: List[float]) -> Tuple[float, float, Optional[int], int]:
    """``(p50, tail value, tail per-mille or None, sample count)``.

    The median is reported for any non-empty sample; an empty sample
    gives zeros with count 0.
    """
    if not samples:
        return 0.0, 0.0, None, 0
    ordered = sorted(samples)
    median = percentile(ordered, 500)
    tail = tail_permille(len(ordered))
    return (
        median,
        percentile(ordered, tail) if tail is not None else 0.0,
        tail,
        len(ordered),
    )


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median, computed as the
    benchmark's acceptance check does (``statistics.quantiles``, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")
