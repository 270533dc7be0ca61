"""Feature extraction over alert streams for failure prediction.

The predictors consume *windowed* views of the log: per-category counts,
total rates, and severity mix over a trailing window.  This mirrors the
feature families of the prediction literature the paper cites (Sahoo et
al.'s event counts, Liang et al.'s burst features) — exactly the "single
features" the paper says should be combined per failure class instead of
applied uniformly (Section 4).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.categories import Alert


@dataclass(frozen=True)
class WindowFeatures:
    """Features of one trailing window ending at ``t``."""

    t: float
    window: float
    total: int
    by_category: Dict[str, int]

    def rate(self) -> float:
        """Alerts per second in the window."""
        return self.total / self.window if self.window > 0 else 0.0

    def count(self, category: str) -> int:
        return self.by_category.get(category, 0)


class AlertHistory:
    """A time-indexed view over a sorted alert list with O(log n) windowed
    count queries — the substrate for all predictors."""

    def __init__(self, alerts: Sequence[Alert]):
        self.alerts = sorted(alerts, key=lambda a: a.timestamp)
        self._times = [a.timestamp for a in self.alerts]
        self._by_category: Dict[str, List[float]] = {}
        for alert in self.alerts:
            self._by_category.setdefault(alert.category, []).append(
                alert.timestamp
            )
        # Memoized ndarray mirrors of the category time indexes, for
        # vectorized training (np.searchsorted side='left' is bisect_left).
        self._by_category_np: Dict[str, np.ndarray] = {}

    @property
    def categories(self) -> List[str]:
        return sorted(self._by_category)

    def count_between(self, t0: float, t1: float) -> int:
        """Alerts with timestamp in [t0, t1)."""
        return bisect_left(self._times, t1) - bisect_left(self._times, t0)

    def category_count_between(self, category: str, t0: float, t1: float) -> int:
        times = self._by_category.get(category, [])
        return bisect_left(times, t1) - bisect_left(times, t0)

    def category_times(self, category: str) -> List[float]:
        return list(self._by_category.get(category, []))

    def between(self, t0: float, t1: float) -> List[Alert]:
        """Alerts with timestamp in [t0, t1), ascending (a fresh slice)."""
        i0 = bisect_left(self._times, t0)
        i1 = bisect_left(self._times, t1)
        return self.alerts[i0:i1]

    def category_times_np(self, category: str) -> np.ndarray:
        arr = self._by_category_np.get(category)
        if arr is None:
            arr = np.asarray(
                self._by_category.get(category, []), dtype=np.float64
            )
            self._by_category_np[category] = arr
        return arr

    def features_at(self, t: float, window: float) -> WindowFeatures:
        """Trailing-window features for the interval [t - window, t)."""
        t0 = t - window
        by_category = {
            category: self.category_count_between(category, t0, t)
            for category in self._by_category
        }
        by_category = {c: n for c, n in by_category.items() if n > 0}
        return WindowFeatures(
            t=t,
            window=window,
            total=self.count_between(t0, t),
            by_category=by_category,
        )

    def first_time(self) -> float:
        return self._times[0] if self._times else 0.0

    def last_time(self) -> float:
        return self._times[-1] if self._times else 0.0
