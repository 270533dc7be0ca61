"""Context-aware RAS metrics (the paper's Section 5 recommendation).

"Despite the temptation to calculate values like MTTF from the system
logs, doing so can be inaccurate and misleading ... using logs to compare
machines is absurd.  We recommend calculating RAS metrics based on
quantities of direct interest, such as the amount of useful work lost due
to failures" (Quantify RAS, Section 5).

This module provides both sides of that argument:

* :func:`naive_log_mttf` — the misleading metric, computed anyway so its
  instability can be demonstrated (it moves with filtering thresholds and
  logging verbosity, not machine health);
* :func:`lost_work_report` — the recommended metric: node-seconds of work
  destroyed by failures, attributed with operational context so downtime
  failures do not count against production reliability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..core.categories import Alert
from ..simulation.opcontext import ContextTimeline, OperationalState
from ..simulation.workload import Job


def naive_log_mttf(
    filtered_alerts: Sequence[Alert],
    window_seconds: float,
) -> float:
    """Mean time to failure computed the naive way: window / alert count.

    The paper warns this is "a strong function of the specific system and
    logging configuration": change the filter threshold or a syslog
    verbosity knob and the "MTTF" moves while the hardware does not.
    Returns ``inf`` for an alert-free window.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    if not filtered_alerts:
        return float("inf")
    return window_seconds / len(filtered_alerts)


@dataclass(frozen=True)
class LostWorkEntry:
    """Work destroyed by one failure event."""

    timestamp: float
    category: str
    source: str
    lost_node_seconds: float
    state: OperationalState


@dataclass
class LostWorkReport:
    """Aggregate lost-work accounting over an observation window."""

    entries: List[LostWorkEntry]

    @property
    def total_lost_node_seconds(self) -> float:
        return sum(entry.lost_node_seconds for entry in self.entries)

    @property
    def production_lost_node_seconds(self) -> float:
        """Losses during production time only — the figure of merit."""
        return sum(
            entry.lost_node_seconds
            for entry in self.entries
            if entry.state is OperationalState.PRODUCTION_UPTIME
        )

    def by_category(self) -> "dict[str, float]":
        totals: dict = {}
        for entry in self.entries:
            totals[entry.category] = (
                totals.get(entry.category, 0.0) + entry.lost_node_seconds
            )
        return totals


def lost_work_report(
    filtered_alerts: Iterable[Alert],
    jobs: Sequence[Job],
    timeline: Optional[ContextTimeline] = None,
    job_fatal_categories: Optional[Sequence[str]] = None,
) -> LostWorkReport:
    """Account the work each (filtered) failure destroyed.

    A failure kills the jobs running on its source node at its timestamp;
    each killed job loses its elapsed node-seconds (no checkpointing).
    With a context timeline, failures outside production uptime are
    recorded but attributable separately — the paper's point that "some
    alerts may be ignored during a scheduled downtime that would be
    significant during production time" (Section 3.2.1).

    ``job_fatal_categories`` limits which categories kill jobs (e.g.
    Liberty's PBS bug); ``None`` means all filtered alerts do.
    """
    fatal = set(job_fatal_categories) if job_fatal_categories is not None else None
    entries: List[LostWorkEntry] = []
    for alert in filtered_alerts:
        if fatal is not None and alert.category not in fatal:
            continue
        state = (
            timeline.state_at(alert.timestamp)
            if timeline is not None
            else OperationalState.PRODUCTION_UPTIME
        )
        lost = 0.0
        for job in jobs:
            if job.start <= alert.timestamp < job.end and any(
                node.name == alert.source for node in job.nodes
            ):
                lost += (alert.timestamp - job.start) * job.width
        entries.append(
            LostWorkEntry(
                timestamp=alert.timestamp,
                category=alert.category,
                source=alert.source,
                lost_node_seconds=lost,
                state=state,
            )
        )
    return LostWorkReport(entries=entries)


def mttf_sensitivity(
    alerts: Sequence[Alert],
    window_seconds: float,
    thresholds: Sequence[float] = (1.0, 5.0, 60.0, 600.0),
) -> "dict[float, float]":
    """Naive MTTF as a function of the filtering threshold.

    The spread of the returned values *is* the paper's argument: a metric
    that varies by orders of magnitude with an analysis knob measures the
    knob, not the machine.
    """
    from ..core.filtering import log_filter

    return {
        threshold: naive_log_mttf(
            list(log_filter(alerts, threshold)), window_seconds
        )
        for threshold in thresholds
    }
