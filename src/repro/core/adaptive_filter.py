"""Per-category adaptive filtering (the paper's recommended extension).

Section 4 identifies a major weakness of all threshold filters, including
the paper's own: "a filtering threshold must be selected in advance and is
then applied across all kinds of alerts.  In reality, each alert category
may require a different threshold, which may change over time."  The
bimodal interarrival distribution on BG/L (Figure 6a) is attributed partly
to unfiltered redundancy left by the one-size-fits-all threshold.

The filter half of that recommendation is Algorithm 3.1 with a map of
per-category windows, ``SpatioTemporalFilter(T, thresholds=...)`` (unlisted
tags keep ``T``).  This module provides the other half,
:func:`suggest_thresholds` — a data-driven threshold chooser that places
each category's cut at the antimode of its log-interarrival histogram (the
valley between the redundancy mode and the independent-failure mode),
which is exactly where a human would cut Figure 6(a).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from .categories import Alert
from .filtering import DEFAULT_THRESHOLD


def _log_histogram(
    gaps: Sequence[float],
    bins_per_decade: int = 4,
    min_gap: float = 1e-6,
) -> List[List[float]]:
    """Dense histogram of log10(gap) as [bin_left_log10, count] rows.

    Dense matters: the valley between two modes is made of *empty* bins,
    and a sparse histogram would hide it from the antimode search.
    """
    counts: Dict[int, int] = {}
    for gap in gaps:
        key = math.floor(math.log10(max(gap, min_gap)) * bins_per_decade)
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return []
    lo, hi = min(counts), max(counts)
    return [
        [key / bins_per_decade, counts.get(key, 0)]
        for key in range(lo, hi + 1)
    ]


def suggest_thresholds(
    alerts: Iterable[Alert],
    default_threshold: float = DEFAULT_THRESHOLD,
    min_samples: int = 20,
    max_threshold: float = 3600.0,
    bins_per_decade: int = 4,
) -> Dict[str, float]:
    """Choose a per-category threshold from the gap structure of the data.

    For each category with at least ``min_samples`` interarrival gaps, build
    a log-spaced histogram of gaps and place the threshold at the deepest
    valley (antimode) between the first and last local maxima — the split
    between the "redundant reports of one failure" mode and the
    "independent failures" mode that Figure 6(a) shows.  Unimodal
    categories (no interior valley) keep ``default_threshold``.

    The returned mapping feeds ``SpatioTemporalFilter(thresholds=...)``
    (:class:`~repro.core.filtering.SpatioTemporalFilter`).  Thresholds are
    clamped to ``max_threshold`` so a bimodal category with a very distant
    second mode cannot swallow whole days.
    """
    gaps_by_category: Dict[str, List[float]] = {}
    last_time: Dict[str, float] = {}
    for alert in alerts:
        previous = last_time.get(alert.category)
        last_time[alert.category] = alert.timestamp
        if previous is not None and alert.timestamp >= previous:
            gaps_by_category.setdefault(alert.category, []).append(
                alert.timestamp - previous
            )

    suggestions: Dict[str, float] = {}
    for category, gaps in gaps_by_category.items():
        if len(gaps) < min_samples:
            continue
        hist = _log_histogram(gaps, bins_per_decade=bins_per_decade)
        if len(hist) < 3:
            continue
        counts = [row[1] for row in hist]
        # A peak must be substantial (>= 5% of mass) so histogram noise in
        # a unimodal category cannot masquerade as a second mode.
        min_peak = max(3, int(0.05 * sum(counts)))
        peak_indices = [
            i
            for i in range(len(counts))
            if (i == 0 or counts[i] >= counts[i - 1])
            and (i == len(counts) - 1 or counts[i] >= counts[i + 1])
            and counts[i] >= min_peak
        ]
        if len(peak_indices) < 2:
            continue
        lo, hi = peak_indices[0], peak_indices[-1]
        if hi - lo < 2:
            continue
        valley = min(range(lo + 1, hi), key=lambda i: counts[i])
        # The valley must be a genuine dip, not a plateau between bumps.
        if counts[valley] > 0.5 * min(counts[lo], counts[hi]):
            continue
        threshold = 10 ** (hist[valley][0] + 0.5 / bins_per_decade)
        suggestions[category] = min(max_threshold, max(threshold, 1e-3))
    return suggestions
