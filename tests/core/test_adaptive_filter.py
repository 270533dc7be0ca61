"""Unit tests for per-category adaptive filtering (Section 4 extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive_filter import suggest_thresholds
from repro.core.filtering import SpatioTemporalFilter, log_filter, sorted_by_time

from ..conftest import make_alert


def per_category(alerts, thresholds, threshold=5.0):
    clock = SpatioTemporalFilter(threshold, thresholds=thresholds)
    return list(filter(clock.offer, alerts))


class TestPerCategoryFilter:
    def test_per_category_windows(self):
        alerts = sorted_by_time(
            [
                make_alert(0.0, category="FAST"),
                make_alert(2.0, category="FAST"),   # > 1s: kept
                make_alert(0.5, category="SLOW"),
                make_alert(30.0, category="SLOW"),  # < 60s: removed
            ]
        )
        kept = per_category(alerts, {"FAST": 1.0, "SLOW": 60.0})
        assert {(a.category, a.timestamp) for a in kept} == {
            ("FAST", 0.0), ("FAST", 2.0), ("SLOW", 0.5),
        }

    def test_default_threshold_for_unlisted(self):
        alerts = [make_alert(0.0), make_alert(3.0)]
        assert len(per_category(alerts, {"OTHER": 1.0}, threshold=5.0)) == 1

    def test_rejects_negative_thresholds(self):
        with pytest.raises(ValueError, match="threshold for 'A'"):
            SpatioTemporalFilter(thresholds={"A": -1.0})
        with pytest.raises(ValueError):
            SpatioTemporalFilter(-1.0, thresholds={"A": 1.0})

    def test_threshold_for(self):
        """An override is the window for its category; the others keep
        the default: a gap of 3 s is redundant for B (T=7) only."""
        alerts = sorted_by_time(
            [make_alert(t, category=c) for t in (0.0, 3.0) for c in "AB"]
        )
        kept = per_category(alerts, {"A": 2.0}, threshold=7.0)
        assert [(a.category, a.timestamp) for a in kept] == [
            ("A", 0.0), ("B", 0.0), ("A", 3.0),
        ]


alert_streams = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
        st.sampled_from(["A", "B"]),
    ),
    max_size=50,
).map(lambda items: sorted_by_time([make_alert(t, category=c) for t, c in items]))


@given(alert_streams)
@settings(max_examples=150)
def test_property_empty_mapping_degenerates_to_algorithm_31(alerts):
    """With no per-category overrides the adaptive filter IS Algorithm 3.1."""
    assert [id(a) for a in per_category(alerts, {})] == [
        id(a) for a in log_filter(alerts, 5.0)
    ]


class TestSuggestThresholds:
    def _bimodal_alerts(self, n_failures=40, burst=6):
        """Failures hours apart, each reported `burst` times seconds apart:
        the Figure 6(a) shape whose antimode a good threshold finds."""
        rng = np.random.default_rng(5)
        alerts = []
        t = 0.0
        for _ in range(n_failures):
            t += float(rng.uniform(3600, 7200))
            for k in range(burst):
                alerts.append(make_alert(t + k * 8.0, category="BURSTY"))
        return sorted_by_time(alerts)

    def test_finds_antimode_between_burst_and_failure_scales(self):
        suggestions = suggest_thresholds(self._bimodal_alerts())
        assert "BURSTY" in suggestions
        # Burst gaps are 8 s, failure gaps are >= 3600 s: the suggestion
        # must separate them.
        assert 8.0 < suggestions["BURSTY"] <= 3600.0

    def test_suggested_threshold_improves_reduction(self):
        """Filtering with the learned threshold gets closer to one alert
        per failure than the global T=5 (which is below the 8 s burst gap)."""
        alerts = self._bimodal_alerts(n_failures=40, burst=6)
        global_kept = list(log_filter(alerts, 5.0))
        adaptive_kept = per_category(alerts, suggest_thresholds(alerts))
        assert len(adaptive_kept) == 40          # exactly one per failure
        assert len(global_kept) == 40 * 6        # T=5 removes nothing

    def test_unimodal_category_keeps_default(self):
        rng = np.random.default_rng(6)
        alerts = sorted_by_time(
            [make_alert(float(t), category="POISSON")
             for t in np.cumsum(rng.exponential(100.0, size=200))]
        )
        suggestions = suggest_thresholds(alerts)
        assert "POISSON" not in suggestions

    def test_sparse_category_skipped(self):
        alerts = [make_alert(0.0), make_alert(100.0)]
        assert suggest_thresholds(alerts) == {}
