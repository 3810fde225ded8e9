"""Order statistics the benchmark reports (stdlib only)."""

from __future__ import annotations

import math
import statistics
from statistics import median  # noqa: F401  (re-exported)
from typing import Optional, Sequence

#: A timing tail is reported at the highest percentile that still has
#: this many samples beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must be in [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_pct(n: int) -> Optional[float]:
    """Highest percentile with >= ``MIN_SAMPLES_BEYOND`` of ``n`` samples
    beyond it; ``None`` when no percentile has."""
    if n <= MIN_SAMPLES_BEYOND:
        return None
    return 100.0 * (n - MIN_SAMPLES_BEYOND) / n


def tail(values: Sequence[float]) -> float:
    """The sample's tail at :func:`tail_pct` (its maximum when the
    sample is too small for the rule — ``--quick`` runs only)."""
    pct = tail_pct(len(values))
    return max(values) if pct is None else percentile(values, pct)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median: the run-to-run spread the bounds are set
    against.  0.0 for fewer than two runs (no spread is observable)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return abs(q3 - q1) / abs(mid) if mid else math.inf
