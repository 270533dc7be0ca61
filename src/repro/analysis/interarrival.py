"""Interarrival-time computation and log-histograms (Figures 5 and 6).

The paper studies the timing of *filtered* alerts: "modeling the timing of
failure events is a common endeavor in systems research" (Section 4).  Its
instruments are the interarrival-time sequence (gaps between consecutive
alerts), per category or pooled, and the histogram of gap logarithms —
Figure 6 plots "the log distribution of interarrival times after
filtering", whose modality is the paper's diagnostic: bimodal on BG/L
(residual redundancy + correlated failures), unimodal on Spirit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.categories import Alert


def _gaps_from_times(times: np.ndarray) -> np.ndarray:
    if times.size < 2:
        return np.empty(0)
    gaps = np.diff(times)
    if (gaps < 0).any():
        raise ValueError("alerts must be sorted by non-decreasing time")
    return gaps


def interarrival_times(alerts: Iterable[Alert]) -> np.ndarray:
    """Gaps (seconds) between consecutive alerts of a time-sorted stream.

    Single pass over ``alerts`` — a generator is consumed exactly once.
    An :class:`~repro.store.query.AlertQuery` takes the column path:
    its ``timestamps()`` array replaces the alerts, though a spilled
    store still builds that array from one Python tuple per row.  Callers that need the pooled *and* the per-category gaps
    from one non-restartable stream must use :func:`interarrival_series`
    (calling this *and* :func:`interarrivals_by_category` on the same
    generator would find it already exhausted).
    """
    fast = getattr(alerts, "timestamps", None)
    if callable(fast):
        times = np.asarray(fast(), dtype=float)
    else:
        times = np.array([alert.timestamp for alert in alerts], dtype=float)
    return _gaps_from_times(times)


def interarrivals_by_category(
    alerts: Iterable[Alert],
) -> Dict[str, np.ndarray]:
    """Per-category gap arrays from one time-sorted stream.

    Single pass, generator-safe; categories appear in first-appearance
    (stream) order.  Only categories with at least two alerts — one gap
    — are present.
    """
    times: Dict[str, List[float]] = {}
    for alert in alerts:
        times.setdefault(alert.category, []).append(alert.timestamp)
    return {
        category: np.diff(np.array(series))
        for category, series in times.items()
        if len(series) >= 2
    }


@dataclass(frozen=True)
class InterarrivalSeries:
    """Pooled and per-category gaps computed from one stream pass."""

    #: Gaps between consecutive alerts of the whole stream.
    gaps: np.ndarray
    #: Per-category gap arrays, categories in first-appearance order.
    by_category: Dict[str, np.ndarray]


def interarrival_series(alerts: Iterable[Alert]) -> InterarrivalSeries:
    """Pooled *and* per-category interarrival gaps in one pass.

    This is the generator-safe (and store-scan-safe) replacement for
    calling :func:`interarrival_times` and
    :func:`interarrivals_by_category` back to back on the same
    iterable, which consumed it twice: here the stream is walked exactly
    once, whether it is a list, a generator, or a columnar store scan,
    and the two views are byte-identical to the historical two-call
    results on a re-iterable input.
    """
    pooled: List[float] = []
    per_category: Dict[str, List[float]] = {}
    for alert in alerts:
        pooled.append(alert.timestamp)
        per_category.setdefault(alert.category, []).append(alert.timestamp)
    gaps = _gaps_from_times(np.asarray(pooled, dtype=float))
    by_category = {
        category: np.diff(np.array(series))
        for category, series in per_category.items()
        if len(series) >= 2
    }
    return InterarrivalSeries(gaps=gaps, by_category=by_category)


@dataclass(frozen=True)
class LogHistogram:
    """Histogram of log10(gap): bin left edges (log10 seconds) and counts."""

    bin_edges: np.ndarray   # length n+1, log10 seconds
    counts: np.ndarray      # length n

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def mode_count(self) -> int:
        """Number of local maxima — Figure 6's modality diagnostic.

        A bin is a mode when strictly greater than the nearest differing
        neighbors on both sides (plateaus count once); leading/trailing
        zeros are ignored.
        """
        counts = self.counts.astype(float)
        nonzero = np.nonzero(counts)[0]
        if nonzero.size == 0:
            return 0
        trimmed = counts[nonzero[0]: nonzero[-1] + 1]
        # Collapse plateaus so "equal then down" reads as one peak.
        collapsed = [trimmed[0]]
        for value in trimmed[1:]:
            if value != collapsed[-1]:
                collapsed.append(value)
        modes = 0
        for i, value in enumerate(collapsed):
            left_ok = i == 0 or collapsed[i - 1] < value
            right_ok = i == len(collapsed) - 1 or collapsed[i + 1] < value
            if left_ok and right_ok:
                modes += 1
        return modes

    def is_bimodal(self, min_valley_depth: float = 0.5) -> bool:
        """Whether two well-separated modes exist.

        ``min_valley_depth``: the valley between the two tallest peaks must
        dip below this fraction of the smaller peak — guards against
        counting histogram noise as a second mode.
        """
        counts = self.counts.astype(float)
        if counts.sum() == 0:
            return False
        peak_idx = [
            i
            for i in range(len(counts))
            if counts[i] > 0
            and (i == 0 or counts[i] >= counts[i - 1])
            and (i == len(counts) - 1 or counts[i] >= counts[i + 1])
        ]
        if len(peak_idx) < 2:
            return False
        # The two tallest peaks, then the deepest valley between them.
        peak_idx.sort(key=lambda i: counts[i], reverse=True)
        a, b = sorted(peak_idx[:2])
        if b - a < 2:
            return False
        valley = counts[a + 1: b].min()
        smaller_peak = min(counts[a], counts[b])
        return valley <= min_valley_depth * smaller_peak


def log_histogram(
    gaps: Sequence[float],
    bins_per_decade: int = 4,
    min_gap: float = 1e-2,
    range_log10: Optional[Tuple[float, float]] = None,
) -> LogHistogram:
    """Histogram gaps on a log10 axis (the Figure 6 view).

    Zero gaps (syslog's one-second timestamps make them common) are clamped
    to ``min_gap`` so they land in the leftmost decade rather than
    vanishing.
    """
    array = np.asarray(list(gaps), dtype=float)
    if array.size == 0:
        edges = np.array([math.log10(min_gap), math.log10(min_gap) + 1])
        return LogHistogram(bin_edges=edges, counts=np.zeros(1, dtype=int))
    logs = np.log10(np.clip(array, min_gap, None))
    if range_log10 is None:
        lo = math.floor(logs.min() * bins_per_decade) / bins_per_decade
        hi = math.ceil(logs.max() * bins_per_decade) / bins_per_decade
        if hi <= lo:
            hi = lo + 1.0 / bins_per_decade
    else:
        lo, hi = range_log10
    n_bins = max(1, int(round((hi - lo) * bins_per_decade)))
    counts, edges = np.histogram(logs, bins=n_bins, range=(lo, hi))
    return LogHistogram(bin_edges=edges, counts=counts)


def summary_statistics(gaps: Sequence[float]) -> Dict[str, float]:
    """Mean/median/CV and tail stats of an interarrival sample.

    The coefficient of variation is the classic burstiness flag: CV ~ 1 is
    Poisson-like (the paper's ECC case), CV >> 1 means correlated arrivals
    (most other categories, Section 4).
    """
    array = np.asarray(list(gaps), dtype=float)
    if array.size == 0:
        return {"count": 0, "mean": 0.0, "median": 0.0, "cv": 0.0,
                "p95": 0.0, "max": 0.0}
    mean = float(array.mean())
    std = float(array.std())
    return {
        "count": int(array.size),
        "mean": mean,
        "median": float(np.median(array)),
        "cv": std / mean if mean > 0 else 0.0,
        "p95": float(np.percentile(array, 95)),
        "max": float(array.max()),
    }
