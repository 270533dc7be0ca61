"""Unit and property tests for Tsao-style tuple clustering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import sorted_by_time
from repro.core.tupling import tuple_alerts

from ..conftest import make_alert


class TestTupleAlerts:
    def test_gap_splits_tuples(self):
        alerts = [make_alert(0.0), make_alert(2.0), make_alert(100.0)]
        tuples = list(tuple_alerts(alerts, window=5.0))
        assert [t.size for t in tuples] == [2, 1]

    def test_empty_stream(self):
        assert list(tuple_alerts([])) == []

    def test_cross_category_grouping(self):
        """Unlike the paper's filter, tuples group across categories —
        the classic tupling 'collision' behavior."""
        alerts = sorted_by_time(
            [make_alert(0.0, category="A"), make_alert(1.0, category="B")]
        )
        tuples = list(tuple_alerts(alerts, window=5.0))
        assert len(tuples) == 1
        assert tuples[0].categories() == ("A", "B")

    def test_tuple_accessors(self):
        alerts = sorted_by_time(
            [
                make_alert(0.0, source="n1", category="A"),
                make_alert(1.0, source="n2", category="A"),
                make_alert(2.0, source="n1", category="B"),
            ]
        )
        (tup,) = tuple_alerts(alerts, window=5.0)
        assert tup.start == 0.0
        assert tup.end == 2.0
        assert tup.duration == 2.0
        assert tup.sources() == ("n1", "n2")
        assert tup.representative() is alerts[0]

    def test_window_zero_splits_on_any_positive_gap(self):
        alerts = [make_alert(0.0), make_alert(0.0), make_alert(1.0)]
        tuples = list(tuple_alerts(alerts, window=0.0))
        assert [t.size for t in tuples] == [2, 1]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            list(tuple_alerts([make_alert(0.0)], window=-1.0))


@st.composite
def sorted_times(draw):
    times = draw(
        st.lists(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    return sorted(times)


@given(sorted_times(), st.floats(min_value=0.1, max_value=100))
@settings(max_examples=200)
def test_property_tuples_partition_the_stream(times, window):
    alerts = [make_alert(t) for t in times]
    tuples = list(tuple_alerts(alerts, window=window))
    flattened = [a for tup in tuples for a in tup.alerts]
    assert flattened == alerts  # exact partition, order preserved


@given(sorted_times(), st.floats(min_value=0.1, max_value=100))
@settings(max_examples=200)
def test_property_intra_gap_bounded_inter_gap_exceeds(times, window):
    alerts = [make_alert(t) for t in times]
    tuples = list(tuple_alerts(alerts, window=window))
    for tup in tuples:
        for a, b in zip(tup.alerts, tup.alerts[1:]):
            assert b.timestamp - a.timestamp <= window
    for first, second in zip(tuples, tuples[1:]):
        assert second.start - first.end > window
