"""Pure helpers of the benchmark: percentiles, span self time, stage sums.

Nothing here touches the library or the clock, so every function is unit
tested on hand-made inputs (``test_perfbench.py``).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

#: Percentiles tried, highest first, when choosing which tail to report.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(count: int, percent: float) -> int:
    """1-based nearest rank of ``percent`` among ``count`` sorted samples."""
    # Multiply first: ``percent / 100`` is inexact (0.999 * 10000 > 9990).
    return max(math.ceil(percent * count / 100.0), 1)


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``percent`` % of the samples at or below it."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < percent <= 100.0:
        raise ValueError("percent must lie in (0, 100], got %r" % (percent,))
    rank = _rank(len(values), percent)
    return float(np.partition(np.asarray(values, dtype=float), rank - 1)[rank - 1])


def beyond_count(count: int, percent: float) -> int:
    """Samples ranked strictly above the nearest-rank ``percent`` percentile."""
    return count - _rank(count, percent)


def tail_percentile(
    count: int, ladder: Sequence[float] = TAIL_LADDER, beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The highest percentile of ``ladder`` with ``beyond`` samples above it.

    A tail percentile resting on fewer samples than that is one or two
    unlucky readings, not a property of the system; ``None`` when even the
    lowest rung is unsupported.
    """
    for percent in ladder:
        if beyond_count(count, percent) >= beyond:
            return percent
    return None


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(interval for interval in intervals if interval[1] > interval[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover.

    Children may overlap each other (concurrent work started by the span)
    or run past either end of the parent (work handed off and finished
    later); only their union clipped to ``[start, end]`` is subtracted, so
    self time is never negative and never counts an instant twice.
    """
    clipped = [(max(start, child_start), min(end, child_end)) for child_start, child_end in children]
    return (end - start) - union_length(clipped)


def stage_share(self_times: Iterable[float], wall: float) -> float:
    """Summed stage self time as a share of the wall time it should explain."""
    if wall <= 0.0:
        raise ValueError("wall time must be positive, got %r" % (wall,))
    return math.fsum(self_times) / wall


def stage_sum_ok(share: float, tolerance: float = 0.10) -> bool:
    """Whether stages explain the wall time to within ``tolerance``."""
    return abs(share - 1.0) <= tolerance
