"""Order statistics that always carry their sample count."""

from __future__ import annotations

import math
from typing import NamedTuple


class Percentile(NamedTuple):
    value: float
    samples: int      # values the statistic was taken over
    beyond: int       # samples strictly above the reported rank


def percentile(values, q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must lie in (0, 100]")
    rank = max(1, math.ceil(q / 100 * len(data)))
    return Percentile(float(data[rank - 1]), len(data), len(data) - rank)


def median(values) -> float:
    data = sorted(values)
    if not data:
        raise ValueError("median of no samples")
    mid = len(data) // 2
    return float(data[mid]) if len(data) % 2 else (data[mid - 1] + data[mid]) / 2
