"""Unit tests for the operational-context state machine (Figure 1)."""

import numpy as np
import pytest

from repro.simulation.opcontext import (
    ContextTimeline,
    OperationalState,
    disambiguate,
    synthesize_timeline,
)

DAY = 86400.0


class TestStates:
    def test_downtime_flag(self):
        assert OperationalState.SCHEDULED_DOWNTIME.is_downtime
        assert OperationalState.UNSCHEDULED_DOWNTIME.is_downtime
        assert not OperationalState.ENGINEERING_TIME.is_downtime


class TestTimeline:
    def _timeline(self):
        timeline = ContextTimeline(0.0, 10 * DAY)
        timeline.add_transition(
            2 * DAY, OperationalState.SCHEDULED_DOWNTIME, "OS upgrade"
        )
        timeline.add_transition(
            2 * DAY + 8 * 3600, OperationalState.PRODUCTION_UPTIME,
            "return to production",
        )
        return timeline

    def test_state_at(self):
        timeline = self._timeline()
        assert timeline.state_at(DAY) is OperationalState.PRODUCTION_UPTIME
        assert timeline.state_at(2 * DAY + 60) is OperationalState.SCHEDULED_DOWNTIME
        assert timeline.state_at(3 * DAY) is OperationalState.PRODUCTION_UPTIME

    def test_state_before_first_transition_clamps(self):
        assert self._timeline().state_at(-5.0) is OperationalState.PRODUCTION_UPTIME

    def test_intervals_cover_window(self):
        intervals = list(self._timeline().intervals())
        assert intervals[0][0] == 0.0
        assert intervals[-1][1] == 10 * DAY
        for (_, t1, _, _), (t0, _, _, _) in zip(intervals, intervals[1:]):
            assert t1 == t0

    def test_seconds_in_state(self):
        timeline = self._timeline()
        assert timeline.seconds_in(OperationalState.SCHEDULED_DOWNTIME) == 8 * 3600

    def test_production_fraction(self):
        timeline = self._timeline()
        expected = (10 * DAY - 8 * 3600) / (10 * DAY)
        assert timeline.production_fraction() == pytest.approx(expected)

    def test_transitions_must_be_ordered(self):
        timeline = self._timeline()
        with pytest.raises(ValueError, match="non-decreasing"):
            timeline.add_transition(
                DAY, OperationalState.ENGINEERING_TIME, "too early"
            )

    def test_transition_outside_window_rejected(self):
        timeline = ContextTimeline(0.0, DAY)
        with pytest.raises(ValueError, match="window"):
            timeline.add_transition(
                2 * DAY, OperationalState.ENGINEERING_TIME, "late"
            )

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            ContextTimeline(5.0, 5.0)

    def test_transition_log_message(self):
        timeline = self._timeline()
        message = timeline.transitions[1].as_log_message()
        assert "scheduled-downtime" in message
        assert "OS upgrade" in message


class TestSynthesize:
    def test_covers_window_and_returns_to_production(self):
        rng = np.random.default_rng(8)
        timeline = synthesize_timeline(rng, 0.0, 365 * DAY)
        assert timeline.production_fraction() > 0.8
        assert timeline.seconds_in(OperationalState.SCHEDULED_DOWNTIME) > 0

    def test_deterministic(self):
        a = synthesize_timeline(np.random.default_rng(9), 0.0, 100 * DAY)
        b = synthesize_timeline(np.random.default_rng(9), 0.0, 100 * DAY)
        assert [(t.timestamp, t.state) for t in a.transitions] == [
            (t.timestamp, t.state) for t in b.transitions
        ]

    def test_extra_events_injected(self):
        rng = np.random.default_rng(10)
        timeline = synthesize_timeline(
            rng, 0.0, 30 * DAY,
            extra_events=[(15 * DAY, OperationalState.ENGINEERING_TIME,
                           "acceptance testing")],
        )
        assert timeline.state_at(15 * DAY + 1) in (
            OperationalState.ENGINEERING_TIME,
            # unless a synthesized outage started right after
            OperationalState.SCHEDULED_DOWNTIME,
            OperationalState.UNSCHEDULED_DOWNTIME,
        )
        causes = [t.cause for t in timeline.transitions]
        assert "acceptance testing" in causes


class TestDisambiguate:
    """The BGLMASTER 'ciodb exited normally' example (Section 3.2.1)."""

    def _timeline(self):
        timeline = ContextTimeline(0.0, 10 * DAY)
        timeline.add_transition(
            5 * DAY, OperationalState.SCHEDULED_DOWNTIME, "maintenance"
        )
        return timeline

    def test_ambiguous_alert_in_downtime_is_benign(self):
        assert disambiguate(self._timeline(), 6 * DAY, ambiguous=True) == "benign"

    def test_ambiguous_alert_in_production_is_critical(self):
        assert disambiguate(self._timeline(), DAY, ambiguous=True) == "critical"

    def test_without_context_the_answer_is_unknown(self):
        """The paper's core complaint: 'only with additional information
        supplied by the system administrator could we conclude...'."""
        assert disambiguate(None, DAY, ambiguous=True) == "unknown"

    def test_unambiguous_alerts_need_no_context(self):
        assert disambiguate(None, DAY, ambiguous=False) == "critical"
