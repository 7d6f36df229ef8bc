"""Order statistics used by the benchmark's reports.

Percentiles use the nearest-rank rule on the sorted samples, so every
reported value is one that was actually measured.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# The ladder searched by ``tail_percentile``, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(pct, n):
    # exact, so that 99.9 % of 10000 is rank 9990, not 9991
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def tail_percentile(values, min_beyond=MIN_BEYOND, ladder=TAIL_LADDER):
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    Returns ``(pct, value)``, or ``None`` when even the lowest rung has
    fewer than ``min_beyond`` samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in ladder:
        rank = _rank(pct, n)
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1]
    return None


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))
