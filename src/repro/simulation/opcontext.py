"""Operational context: the paper's Figure 1 state machine.

The paper's most emphasized missing datum is *operational context*, "which
captures the system's expected behavior" (Section 1): the same message —
``ciodb exited normally with exit code 0`` at severity FAILURE — is
harmless during maintenance and catastrophic during production
(Section 3.2.1).  Figure 1, "the current basis of Red Storm RAS metrics",
divides machine time into production and engineering time, each up or
down, with scheduled and unscheduled interruptions; the paper suggests "it
may be sufficient to record only a few bytes of data: the time and cause
of system state changes."

This module implements exactly that: a timeline of state intervals with
causes, the transition events that would be logged, and the queries an
alert disambiguator needs (:meth:`ContextTimeline.state_at`).  The
simulation uses it as ground truth; :mod:`repro.analysis.ras` uses it for
context-aware metrics.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple


class OperationalState(enum.Enum):
    """Machine states, after Figure 1."""

    PRODUCTION_UPTIME = "production-uptime"
    SCHEDULED_DOWNTIME = "scheduled-downtime"
    UNSCHEDULED_DOWNTIME = "unscheduled-downtime"
    ENGINEERING_TIME = "engineering-time"

    @property
    def is_downtime(self) -> bool:
        return self in (
            OperationalState.SCHEDULED_DOWNTIME,
            OperationalState.UNSCHEDULED_DOWNTIME,
        )


@dataclass(frozen=True)
class StateTransition:
    """One logged state change: "the time and cause" (Section 3.2.1)."""

    timestamp: float
    state: OperationalState
    cause: str

    def as_log_message(self) -> str:
        """The transition rendered as the log line the paper recommends."""
        return f"OPSTATE {self.state.value} cause={self.cause!r}"


class ContextTimeline:
    """A machine's operational history as ordered state transitions.

    The timeline starts in ``initial_state`` at ``start``; each transition
    switches the state from its timestamp onward.  Lookup is binary search.
    """

    def __init__(
        self,
        start: float,
        end: float,
        initial_state: OperationalState = OperationalState.PRODUCTION_UPTIME,
        initial_cause: str = "start of observation",
    ):
        if end <= start:
            raise ValueError("end must be after start")
        self.start = start
        self.end = end
        self._transitions: List[StateTransition] = [
            StateTransition(start, initial_state, initial_cause)
        ]

    def add_transition(self, timestamp: float, state: OperationalState,
                       cause: str) -> None:
        """Append a transition; timestamps must be non-decreasing."""
        if timestamp < self._transitions[-1].timestamp:
            raise ValueError(
                "transitions must be added in non-decreasing time order"
            )
        if not (self.start <= timestamp <= self.end):
            raise ValueError("transition outside the observation window")
        self._transitions.append(StateTransition(timestamp, state, cause))

    @property
    def transitions(self) -> Tuple[StateTransition, ...]:
        return tuple(self._transitions)

    def state_at(self, t: float) -> OperationalState:
        """The machine state at time ``t`` (clamped to the window)."""
        times = [tr.timestamp for tr in self._transitions]
        idx = bisect.bisect_right(times, t) - 1
        return self._transitions[max(idx, 0)].state

    def intervals(self) -> Iterator[Tuple[float, float, OperationalState, str]]:
        """Yield (t0, t1, state, cause) covering [start, end)."""
        for i, tr in enumerate(self._transitions):
            t1 = (
                self._transitions[i + 1].timestamp
                if i + 1 < len(self._transitions)
                else self.end
            )
            if t1 > tr.timestamp:
                yield tr.timestamp, t1, tr.state, tr.cause

    def seconds_in(self, state: OperationalState) -> float:
        """Total seconds spent in ``state`` over the window."""
        return sum(
            t1 - t0 for t0, t1, s, _ in self.intervals() if s is state
        )

    def production_fraction(self) -> float:
        """Fraction of the window spent in production uptime."""
        return self.seconds_in(OperationalState.PRODUCTION_UPTIME) / (
            self.end - self.start
        )


def synthesize_timeline(
    rng,
    start: float,
    end: float,
    mean_days_between_outages: float = 21.0,
    scheduled_fraction: float = 0.6,
    mean_outage_hours: float = 8.0,
    extra_events: Sequence[Tuple[float, OperationalState, str]] = (),
) -> ContextTimeline:
    """A plausible operational history for a production machine.

    Outages arrive as a Poisson process; each is scheduled maintenance with
    probability ``scheduled_fraction`` (else an unscheduled failure), lasts
    an exponential number of hours, then the machine returns to production.
    ``extra_events`` injects scenario-specific transitions (e.g. the
    Liberty OS upgrade) at fixed times.
    """
    timeline = ContextTimeline(start, end)
    pending: List[Tuple[float, OperationalState, str]] = list(extra_events)
    t = start
    while True:
        t += float(rng.exponential(mean_days_between_outages * 86400.0))
        if t >= end:
            break
        duration = max(600.0, float(rng.exponential(mean_outage_hours * 3600.0)))
        if rng.random() < scheduled_fraction:
            state, cause = OperationalState.SCHEDULED_DOWNTIME, "scheduled maintenance"
        else:
            state, cause = OperationalState.UNSCHEDULED_DOWNTIME, "system failure"
        pending.append((t, state, cause))
        if t + duration < end:
            pending.append(
                (t + duration, OperationalState.PRODUCTION_UPTIME,
                 "return to production")
            )
    for when, state, cause in sorted(pending, key=lambda item: item[0]):
        if timeline.transitions[-1].timestamp <= when <= end:
            timeline.add_transition(when, state, cause)
    return timeline


def disambiguate(
    timeline: Optional[ContextTimeline],
    timestamp: float,
    ambiguous: bool,
) -> str:
    """Classify an alert given operational context.

    The paper's BGLMASTER example: a FAILURE-severity "exited normally"
    message is ``benign`` during maintenance, ``critical`` in production.
    Without a timeline the honest answer is ``unknown`` — which is the
    state of practice the paper laments.
    """
    if not ambiguous:
        return "critical"
    if timeline is None:
        return "unknown"
    state = timeline.state_at(timestamp)
    return "benign" if state.is_downtime else "critical"
