"""Summary statistics the benchmark reports."""

from __future__ import annotations

from typing import Sequence, Tuple

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the tail of *samples*.

    The tail is the highest percentile that leaves at least
    :data:`TAIL_BEYOND` samples beyond it, i.e. the eleventh-largest
    sample, at percentile ``100 * (n - 10) / n``.  With fewer than
    ``2 * TAIL_BEYOND`` samples no percentile at or above the median
    qualifies, and the maximum is reported as percentile 100.
    """
    if not samples:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n
