"""Sample statistics shared by the harness, the comparer and the tests."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie
#: beyond it (the choosing-metrics rule for tail latencies).
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as the driver computes them.

    ``statistics.quantiles`` needs two points; a single sample is its
    own quartiles.
    """
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(samples)
    return (q3 - q1) / abs(median) if median else float("inf")


def highest_supported_percentile(
    count: int, candidates: Sequence[int] = (99, 95, 90, 75)
) -> Optional[int]:
    """The highest candidate percentile with >= 10 samples beyond it.

    None when even the lowest candidate is not supported; the caller
    then labels its tail figure as indicative only.
    """
    for q in candidates:
        if count * (100 - q) / 100.0 >= MIN_SAMPLES_BEYOND:
            return q
    return None


def grouped_typical(groups: Dict[object, List[float]]) -> float:
    """Mean over groups of each group's median.

    A timed series cycles through several generated inputs whose cost
    differs; the median over pooled samples would jump between inputs
    from seed to seed, the mean of per-input medians does not.
    """
    medians = [statistics.median(values) for values in groups.values() if values]
    if not medians:
        raise ValueError("no samples")
    return sum(medians) / len(medians)
