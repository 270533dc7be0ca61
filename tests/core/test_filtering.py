"""Unit and property tests for Algorithm 3.1 (simultaneous filtering)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import (
    FilterReport,
    OutOfOrderError,
    SpatioTemporalFilter,
    log_filter,
    sorted_by_time,
)

from ..conftest import make_alert


class TestBasicSemantics:
    def test_single_alert_kept(self):
        assert len(list(log_filter([make_alert(0.0)]))) == 1

    def test_repeat_within_threshold_removed(self):
        alerts = [make_alert(0.0), make_alert(3.0)]
        kept = list(log_filter(alerts))
        assert [a.timestamp for a in kept] == [0.0]

    def test_repeat_beyond_threshold_kept(self):
        alerts = [make_alert(0.0), make_alert(6.0)]
        assert len(list(log_filter(alerts))) == 2

    def test_boundary_gap_exactly_t_is_kept(self):
        # Algorithm 3.1 removes on t_i - X[c_i] < T, strictly.
        alerts = [make_alert(0.0), make_alert(5.0)]
        assert len(list(log_filter(alerts, threshold=5.0))) == 2

    def test_chain_suppression(self):
        # "if a node reports a particular alert every T seconds for a week,
        # the temporal filter keeps only the first" — suppressed alerts
        # refresh the clock.
        alerts = [make_alert(float(t)) for t in range(0, 100, 3)]
        assert len(list(log_filter(alerts))) == 1

    def test_spatial_suppression_across_sources(self):
        # "an alert ... is considered redundant if ANY source, including s,
        # had reported that alert category within T seconds."
        alerts = [
            make_alert(0.0, source="n1"),
            make_alert(2.0, source="n2"),
            make_alert(4.0, source="n3"),
        ]
        kept = list(log_filter(alerts))
        assert len(kept) == 1
        assert kept[0].source == "n1"

    def test_round_robin_reporting_collapses(self):
        # The paper's k-node round-robin example.
        alerts = [
            make_alert(float(t), source=f"n{t % 4}") for t in range(0, 40, 2)
        ]
        assert len(list(log_filter(alerts))) == 1

    def test_categories_filter_independently(self):
        alerts = sorted_by_time(
            [make_alert(0.0, category="A"), make_alert(1.0, category="B"),
             make_alert(2.0, category="A"), make_alert(3.0, category="B")]
        )
        kept = list(log_filter(alerts))
        assert {(a.category, a.timestamp) for a in kept} == {("A", 0.0), ("B", 1.0)}

    def test_empty_stream(self):
        assert list(log_filter([])) == []

    def test_zero_threshold_keeps_everything_with_positive_gaps(self):
        alerts = [make_alert(0.0), make_alert(0.5), make_alert(1.0)]
        assert len(list(log_filter(alerts, threshold=0.0))) == 3

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpatioTemporalFilter(-1.0)


class TestTableClear:
    def test_clear_does_not_change_output(self):
        # The clear(X) step is memory hygiene: a long quiet gap wipes the
        # table, but any surviving entry would have been stale anyway.
        alerts = [make_alert(0.0), make_alert(1000.0), make_alert(1002.0)]
        kept = list(log_filter(alerts))
        assert [a.timestamp for a in kept] == [0.0, 1000.0]

    def test_internal_table_is_cleared_after_quiet_gap(self):
        stf = SpatioTemporalFilter()
        stf.offer(make_alert(0.0, category="A"))
        stf.offer(make_alert(1.0, category="B"))
        assert len(stf._last_seen) == 2
        stf.offer(make_alert(100.0, category="C"))
        assert set(stf._last_seen) == {"C"}


class TestOutOfOrderInput:
    """Regression: out-of-order input used to corrupt filter state
    silently — a backwards timestamp overwrote ``last_seen`` and made the
    filter keep later repeats it should have suppressed.  ``offer`` now
    enforces monotonicity: strict by default, clamping within an explicit
    reorder tolerance."""

    def test_backwards_timestamp_raises_by_default(self):
        stf = SpatioTemporalFilter()
        stf.offer(make_alert(10.0))
        with pytest.raises(OutOfOrderError) as excinfo:
            stf.offer(make_alert(4.0))
        assert excinfo.value.timestamp == 4.0
        assert excinfo.value.last_time == 10.0

    def test_equal_timestamp_is_not_disorder(self):
        stf = SpatioTemporalFilter()
        stf.offer(make_alert(10.0))
        stf.offer(make_alert(10.0, category="OTHER"))  # no raise

    def test_rejected_alert_does_not_corrupt_state(self):
        stf = SpatioTemporalFilter(threshold=5.0)
        stf.offer(make_alert(10.0))
        with pytest.raises(OutOfOrderError):
            stf.offer(make_alert(1.0))
        # 12.0 is within threshold of the kept 10.0: still suppressed.
        assert not stf.offer(make_alert(12.0))

    def test_within_tolerance_clamped_not_raised(self):
        stf = SpatioTemporalFilter(threshold=5.0, reorder_tolerance=2.0)
        assert stf.offer(make_alert(10.0))
        # 1.5s backwards: tolerated, treated as arriving at 10.0 — and
        # therefore suppressed as a repeat, not kept via a stale gap.
        assert not stf.offer(make_alert(8.5))
        # Clamping must not push time forward: 10.5 is 0.5s after the
        # clamped 10.0 and still inside the threshold window.
        assert not stf.offer(make_alert(10.5))
        # Suppressed repeats refresh the clock (chain suppression), so the
        # next keeper must clear 10.5 + threshold.
        assert stf.offer(make_alert(16.0))

    def test_beyond_tolerance_raises(self):
        stf = SpatioTemporalFilter(reorder_tolerance=2.0)
        stf.offer(make_alert(10.0))
        with pytest.raises(OutOfOrderError):
            stf.offer(make_alert(7.0))

    def test_regression_silent_suppression_window_shrink(self):
        """The historical bug: a backwards record used to rewind the
        category clock, so a repeat inside the threshold was kept.  The
        tolerant filter clamps instead and keeps suppressing."""
        stf = SpatioTemporalFilter(threshold=5.0, reorder_tolerance=10.0)
        assert stf.offer(make_alert(20.0))
        assert not stf.offer(make_alert(12.0))  # clamped to 20.0
        # With the old behavior last_seen would now be 12.0 and 21.0
        # (gap 9 > 5) would sneak through; clamped state suppresses it.
        assert not stf.offer(make_alert(21.0))

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            SpatioTemporalFilter(reorder_tolerance=-1.0)

    def test_log_filter_refuses_a_backwards_stream(self):
        """The whole-stream filter used to rewind its clock on a backwards
        timestamp, silently; it is the same clock as ``offer`` now."""
        alerts = [make_alert(10.0), make_alert(4.0), make_alert(12.0)]
        with pytest.raises(OutOfOrderError):
            list(log_filter(alerts))


class TestStats:
    def test_report_per_category(self):
        alerts = sorted_by_time(
            [make_alert(0.0, category="A"), make_alert(1.0, category="A"),
             make_alert(2.0, category="B")]
        )
        stf = SpatioTemporalFilter()
        report = FilterReport(threshold=stf.threshold)
        for alert in alerts:
            report.record(alert, stf.offer(alert))
        assert report.by_category == {"A": [2, 1], "B": [1, 1]}
        assert report.raw_total == 3
        assert report.filtered_total == 2


# -- property-based tests ----------------------------------------------------

alert_streams = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
        st.sampled_from(["A", "B", "C"]),
        st.sampled_from(["n1", "n2"]),
    ),
    max_size=60,
).map(
    lambda items: sorted_by_time(
        [make_alert(t, source=s, category=c) for t, c, s in items]
    )
)


@given(alert_streams)
@settings(max_examples=200)
def test_property_output_is_subsequence_of_input(alerts):
    kept = list(log_filter(alerts))
    it = iter(alerts)
    assert all(any(k is a for a in it) for k in kept)


@given(alert_streams)
@settings(max_examples=200)
def test_property_first_alert_always_kept(alerts):
    kept = list(log_filter(alerts))
    if alerts:
        assert kept and kept[0] is alerts[0]


@given(alert_streams, st.floats(min_value=0.1, max_value=50))
@settings(max_examples=200)
def test_property_kept_same_category_gaps_at_least_t(alerts, threshold):
    kept = list(log_filter(alerts, threshold))
    last = {}
    for alert in kept:
        if alert.category in last:
            assert alert.timestamp - last[alert.category] >= threshold
        last[alert.category] = alert.timestamp


@given(alert_streams)
@settings(max_examples=100)
def test_property_idempotent(alerts):
    once = list(log_filter(alerts))
    twice = list(log_filter(once))
    assert twice == once


@given(alert_streams, st.floats(min_value=0.1, max_value=20),
       st.floats(min_value=0.1, max_value=20))
@settings(max_examples=100)
def test_property_monotone_in_threshold(alerts, t_small, t_large):
    """A larger threshold never keeps more alerts."""
    lo, hi = sorted([t_small, t_large])
    assert len(list(log_filter(alerts, hi))) <= len(list(log_filter(alerts, lo)))


def _reference_filter(alerts, threshold):
    """Differential-testing oracle: because suppressed alerts refresh the
    clock, Algorithm 3.1 reduces to 'keep iff the gap to the immediately
    preceding same-category alert (any source) is >= T'."""
    last = {}
    kept = []
    for alert in alerts:
        previous = last.get(alert.category)
        last[alert.category] = alert.timestamp
        if previous is None or alert.timestamp - previous >= threshold:
            kept.append(alert)
    return kept


@given(alert_streams, st.floats(min_value=0.1, max_value=50))
@settings(max_examples=200)
def test_property_differential_against_reference(alerts, threshold):
    """The full Algorithm 3.1 (with its clear(X) step) must agree with the
    simple per-category-gap oracle on every input."""
    assert [id(a) for a in list(log_filter(alerts, threshold))] == [
        id(a) for a in _reference_filter(alerts, threshold)
    ]
