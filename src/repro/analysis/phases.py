"""Phase-shift detection in message traffic (system evolution).

Section 3.2.1, "System Evolution": "over the course of a system's
lifetime, anything from software upgrades to minor configuration changes
can drastically alter the meaning or character of the logs ...  The
ability to detect phase shifts in behavior would be a valuable tool for
triggering relearning or for knowing which existing behavioral model to
apply."  Figure 2(a) shows the motivating example — step changes in
Liberty's hourly message rate, the first caused by an OS upgrade.

The detector is a binary-segmentation changepoint search on the bucketed
rate series using a normalized mean-shift statistic — small, dependency-
free, and effective on step-shaped shifts like Figure 2(a)'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .timeseries import RateSeries


@dataclass(frozen=True)
class PhaseShift:
    """One detected behavior change."""

    bucket_index: int
    timestamp: float
    mean_before: float
    mean_after: float

    @property
    def magnitude(self) -> float:
        """Relative rate change (new mean / old mean)."""
        if self.mean_before == 0:
            return float("inf") if self.mean_after > 0 else 1.0
        return self.mean_after / self.mean_before


def _best_split(values: np.ndarray) -> "tuple[int, float]":
    """The split index maximizing the normalized mean-shift statistic.

    For split k the statistic is |mean(left) - mean(right)| scaled by
    sqrt(k (n-k) / n) / std — the CUSUM-style score under which a true
    step change at k is the argmax in expectation.
    """
    n = len(values)
    std = values.std()
    if n < 4 or std == 0:
        return 0, 0.0
    cumulative = np.cumsum(values)
    total = cumulative[-1]
    ks = np.arange(1, n)
    left_means = cumulative[:-1] / ks
    right_means = (total - cumulative[:-1]) / (n - ks)
    weights = np.sqrt(ks * (n - ks) / n)
    scores = np.abs(left_means - right_means) * weights / std
    best = int(np.argmax(scores))
    return best + 1, float(scores[best])


def detect_phase_shifts(
    series: RateSeries,
    threshold: float = 3.0,
    min_segment: int = 24,
    max_shifts: int = 8,
) -> List[PhaseShift]:
    """Recursive binary segmentation on a rate series.

    Parameters
    ----------
    series:
        The bucketed traffic series (hourly, per Figure 2(a)).
    threshold:
        Minimum normalized shift score to accept a changepoint; 3.0 is a
        ~3-sigma bar against declaring noise a new phase.
    min_segment:
        Minimum buckets on each side of a shift (24 hourly buckets = one
        day), rejecting transient storms as "evolution".
    max_shifts:
        Recursion budget.
    """
    values = series.counts.astype(float)
    found: List[PhaseShift] = []

    def recurse(lo: int, hi: int, budget: int) -> None:
        if budget <= 0 or hi - lo < 2 * min_segment:
            return
        split, score = _best_split(values[lo:hi])
        if score < threshold or split < min_segment or (hi - lo) - split < min_segment:
            return
        cut = lo + split
        found.append(
            PhaseShift(
                bucket_index=cut,
                timestamp=series.start + cut * series.bucket_seconds,
                mean_before=float(values[lo:cut].mean()),
                mean_after=float(values[cut:hi].mean()),
            )
        )
        recurse(lo, cut, budget - 1)
        recurse(cut, hi, budget - 1)

    recurse(0, len(values), max_shifts)
    found.sort(key=lambda shift: shift.bucket_index)
    return found
