"""Tsao-style tuple clustering (related-work baseline).

Tsao's dissertation introduced the *tuple* concept "for data organization
and to deal with multiple reports of single events" (paper, Section 2;
Buckley & Siewiorek later compared tupling schemes).  A tuple is a maximal
run of events in which consecutive members are separated by at most a
coalescence window — unlike the paper's filter, tupling groups across
*all* categories and keeps the whole group (with its membership) rather
than only the first alert.

Tupling gives the reproduction a third comparison point: per-failure
grouping quality can be judged against both the simultaneous and serial
filters in the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Tuple

from .categories import Alert


@dataclass
class AlertTuple:
    """One coalesced group of temporally adjacent alerts."""

    alerts: List[Alert] = field(default_factory=list)

    @property
    def start(self) -> float:
        return self.alerts[0].timestamp

    @property
    def end(self) -> float:
        return self.alerts[-1].timestamp

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def size(self) -> int:
        return len(self.alerts)

    def categories(self) -> Tuple[str, ...]:
        """Distinct categories present, in first-appearance order."""
        seen: List[str] = []
        for alert in self.alerts:
            if alert.category not in seen:
                seen.append(alert.category)
        return tuple(seen)

    def sources(self) -> Tuple[str, ...]:
        """Distinct sources present, in first-appearance order."""
        seen: List[str] = []
        for alert in self.alerts:
            if alert.source not in seen:
                seen.append(alert.source)
        return tuple(seen)

    def representative(self) -> Alert:
        """The tuple's first alert — the per-failure representative."""
        return self.alerts[0]


def tuple_alerts(
    alerts: Iterable[Alert],
    window: float = 5.0,
) -> Iterator[AlertTuple]:
    """Group a time-sorted stream into tuples.

    A new tuple starts whenever the gap since the previous alert exceeds
    ``window``.  Yields tuples as they close; the final tuple is yielded at
    stream end.
    """
    if window < 0:
        raise ValueError("window must be non-negative")
    current: List[Alert] = []
    for alert in alerts:
        if current and alert.timestamp - current[-1].timestamp > window:
            yield AlertTuple(current)
            current = []
        current.append(alert)
    if current:
        yield AlertTuple(current)
