"""Order statistics for op latencies, always carried with their sample count.

Stdlib only, so the tracer tests can exercise it without numpy.
"""

from __future__ import annotations

import math
from typing import Sequence

#: p90 is reported only when at least this many samples lie beyond it; with
#: fewer it is one or two outliers, not a tail.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1), interpolated linearly between ranks.

    Matches numpy's default ``"linear"`` method.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_summary(samples: Sequence[float]) -> dict[str, float | int]:
    """``{"n", "p50"}``, plus ``"p90"`` from 100 samples on."""
    summary: dict[str, float | int] = {
        "n": len(samples),
        "p50": percentile(samples, 0.5),
    }
    if len(samples) >= 10 * MIN_SAMPLES_BEYOND:  # 10% of samples lie beyond p90
        summary["p90"] = percentile(samples, 0.9)
    return summary
