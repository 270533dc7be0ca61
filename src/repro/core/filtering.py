"""The paper's simultaneous spatio-temporal filter (Algorithm 3.1), and the
one redundancy clock every other filter in this package is built from.

A single failure may generate alerts across many nodes or many alerts on a
single node; filtering reduces a related set of alerts to (ideally) one
alert per failure.  The paper's algorithm performs temporal and spatial
filtering *simultaneously*: "an alert message generated by source s is
considered redundant (and removed) if any source, including s, had reported
that alert category within T seconds" (Section 3.3.2).  Compared with
applying a temporal filter then a spatial filter serially [Liang et al.],
this is one pass, conceptually simpler, and measured ~16 % faster on the
Spirit logs — at the price of occasionally merging coincident *independent*
failures of the same category on different nodes (the paper's
sn373 / sn325 example; "at most one true positive was removed on any single
machine").

The pseudocode from the paper, which :class:`SpatioTemporalFilter`
implements exactly with its default key and no per-key thresholds::

    l <- 0
    for i <- 1 to N:
        if t_i - l > T: clear(X)
        l <- t_i
        if c_i in X and t_i - X[c_i] < T:
            X[c_i] <- t_i              # redundant; suppressed
        else:
            X[c_i] <- t_i
            output(a_i)

Note that suppressed alerts still refresh ``X[c_i]``: a chain of alerts
each within ``T`` of its predecessor is coalesced to its first element even
if the chain lasts days — this is what collapses Spirit's 56.8-million-alert
disk storm to a handful of filtered alerts.  The ``clear(X)`` step is pure
memory hygiene (the table would otherwise grow with dead categories) and
does not change the output.

Every other filter is the same rule with a different key ``k(a)`` or
window ``T(k)`` — an alert is redundant if its key was seen less than
``T(k)`` seconds ago: the Liang et al. serial baseline is a
``(source, category)`` clock feeding a category clock
(:mod:`repro.core.serial_filter`), per-category thresholds are
``thresholds=`` (:mod:`repro.core.adaptive_filter`), and correlation-aware
filtering keys by alias group (:func:`repro.core.correlated_filter.alias_key`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional,
)

from .categories import Alert

#: The threshold used throughout the paper, "in correspondence with
#: previous work" (Section 3.3.2; Buckley & Siewiorek, Liang et al.).
DEFAULT_THRESHOLD = 5.0


class OutOfOrderError(ValueError):
    """An alert's timestamp ran backwards beyond the reorder tolerance.

    Algorithm 3.1 requires non-decreasing timestamps; feeding it a
    backwards timestamp silently corrupts its state (``t - l`` goes
    negative, so the table is never cleared and ``t - X[c] < T`` holds
    trivially, suppressing every later alert of that category).  The
    filter refuses such input loudly; pipelines that must survive it
    quarantine the offending alert instead.
    """

    def __init__(self, timestamp: float, last_time: float, tolerance: float):
        super().__init__(
            f"alert timestamp {timestamp} precedes stream time {last_time} "
            f"by {last_time - timestamp:.6g}s (> tolerance {tolerance:g}s)"
        )
        self.timestamp = timestamp
        self.last_time = last_time
        self.tolerance = tolerance


class SpatioTemporalFilter:
    """Algorithm 3.1 as a keyed redundancy clock.

    Feed alerts in non-decreasing time order via :meth:`offer`; it returns
    ``True`` when the alert survives: its key ``key(alert)`` (its category
    when ``key`` is ``None``) was not seen within
    ``thresholds.get(key, threshold)`` seconds.  When the stream goes quiet
    for longer than every window the table is cleared, which never changes
    the output.

    Timestamps must be monotone within ``reorder_tolerance``: a timestamp
    up to that many seconds behind stream time is treated as arriving *at*
    stream time (collector fan-in jitter), while anything further behind
    raises :class:`OutOfOrderError` instead of silently corrupting the
    clock.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        reorder_tolerance: float = 0.0,
        key: Optional[Callable[[Alert], Hashable]] = None,
        thresholds: Optional[Mapping[Hashable, float]] = None,
    ):
        self.thresholds = dict(thresholds or {})
        for name, value in [
            ("threshold", threshold),
            ("reorder_tolerance", reorder_tolerance),
            *((f"threshold for {k!r}", v) for k, v in self.thresholds.items()),
        ]:
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        self.threshold = threshold
        self.reorder_tolerance = reorder_tolerance
        self.key = key
        # ``threshold`` stays a plain attribute (degraded mode raises it
        # mid-run), so the clear test checks it and the overrides apart.
        self._longest_override = max(self.thresholds.values(), default=0.0)
        self._last_time = 0.0
        self._last_seen: Dict[Hashable, float] = {}

    def offer(self, alert: Alert) -> bool:
        """Process one alert; ``True`` iff it is kept (non-redundant)."""
        t = alert.timestamp
        if t < self._last_time:
            if self._last_time - t > self.reorder_tolerance:
                raise OutOfOrderError(t, self._last_time, self.reorder_tolerance)
            t = self._last_time
        gap = t - self._last_time
        if gap > self.threshold and gap > self._longest_override:
            self._last_seen.clear()
        self._last_time = t
        key = alert.category if self.key is None else self.key(alert)
        last = self._last_seen.get(key)
        self._last_seen[key] = t
        return last is None or t - last >= self.thresholds.get(key, self.threshold)

    def state_dict(self) -> Dict[str, object]:
        """Resumable clock state: restoring it into an instance built with
        the same key and thresholds and feeding the rest of the stream
        matches an uninterrupted run exactly."""
        return {
            "threshold": self.threshold,
            "reorder_tolerance": self.reorder_tolerance,
            "last_time": self._last_time,
            "last_seen": dict(self._last_seen),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore state captured by :meth:`state_dict` (older states also
        carry ``seen``/``kept`` counters, which are ignored)."""
        self.threshold = float(state["threshold"])
        self.reorder_tolerance = float(state["reorder_tolerance"])
        self._last_time = float(state["last_time"])
        self._last_seen = dict(state["last_seen"])  # type: ignore[arg-type]


def log_filter(
    alerts: Iterable[Alert],
    threshold: float = DEFAULT_THRESHOLD,
) -> Iterator[Alert]:
    """Apply Algorithm 3.1 lazily to a time-sorted alert stream.

    Yields the surviving alerts in order.  The input must be sorted by
    non-decreasing timestamp, as in the paper ("the sequence is sorted by
    increasing time"); a timestamp that runs backwards raises
    :class:`OutOfOrderError`, so use :func:`sorted_by_time` first when
    unsure.
    """
    return filter(SpatioTemporalFilter(threshold).offer, alerts)


def sorted_by_time(alerts: Iterable[Alert]) -> List[Alert]:
    """Alerts sorted by (timestamp, source, category) — a deterministic
    total order consistent with the algorithm's requirement."""
    return sorted(alerts, key=lambda a: (a.timestamp, a.source, a.category))


@dataclass
class FilterReport:
    """Raw-vs-filtered accounting for one run, as the paper's tables use.

    ``by_category`` maps category tag to ``(raw, filtered)`` counts —
    the two numeric columns of Table 4.
    """

    threshold: float
    raw_total: int = 0
    filtered_total: int = 0
    by_category: Dict[str, List[int]] = field(default_factory=dict)

    def record(self, alert: Alert, kept: bool) -> None:
        pair = self.by_category.setdefault(alert.category, [0, 0])
        pair[0] += 1
        self.raw_total += 1
        if kept:
            pair[1] += 1
            self.filtered_total += 1
