"""Unit and property tests for the serial filter baseline and the
simultaneous-vs-serial comparison the paper draws (Section 3.3.2)."""

from operator import attrgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import SpatioTemporalFilter, log_filter, sorted_by_time
from repro.core.serial_filter import compare_filters, serial_filter

from ..conftest import make_alert


def temporal_stage(alerts, threshold=5.0):
    """The serial pipeline's first stage: a ``(source, category)`` clock."""
    clock = SpatioTemporalFilter(threshold, key=attrgetter("source", "category"))
    return list(filter(clock.offer, alerts))


class TestTemporalFilter:
    def test_same_source_chain_collapses(self):
        alerts = [make_alert(float(t), source="n1") for t in range(0, 30, 3)]
        assert len(temporal_stage(alerts)) == 1

    def test_different_sources_pass(self):
        alerts = [
            make_alert(0.0, source="n1"),
            make_alert(1.0, source="n2"),
        ]
        assert len(temporal_stage(alerts)) == 2

    def test_different_categories_pass(self):
        alerts = sorted_by_time(
            [make_alert(0.0, category="A"), make_alert(1.0, category="B")]
        )
        assert len(temporal_stage(alerts)) == 2


class TestSpatialFilter:
    def test_other_source_within_t_removed(self):
        alerts = [make_alert(0.0, source="n1"), make_alert(2.0, source="n2")]
        kept = list(serial_filter(alerts))
        assert [a.source for a in kept] == ["n1"]


class TestPaperDivergenceExample:
    """The Section 3.3.2 critique: the temporal stage removes the cue the
    spatial stage needed."""

    def _alerts(self):
        # n1 reports at t=0 and t=3 (same category); n2 reports at t=7.
        return sorted_by_time(
            [
                make_alert(0.0, source="n1"),
                make_alert(3.0, source="n1"),
                make_alert(7.0, source="n2"),
            ]
        )

    def test_serial_keeps_the_shared_resource_duplicate(self):
        kept = list(serial_filter(self._alerts()))
        assert [(a.timestamp, a.source) for a in kept] == [(0.0, "n1"), (7.0, "n2")]

    def test_simultaneous_removes_it(self):
        kept = list(log_filter(self._alerts()))
        assert [(a.timestamp, a.source) for a in kept] == [(0.0, "n1")]

    def test_compare_filters_reports_the_difference(self):
        outcome = compare_filters(self._alerts())
        assert len(outcome["simultaneous"]) == 1
        assert len(outcome["serial"]) == 2
        removed = outcome["removed_only_by_simultaneous"]
        assert [a.source for a in removed] == ["n2"]
        assert outcome["removed_only_by_serial"] == []


alert_streams = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=5e3, allow_nan=False),
        st.sampled_from(["A", "B"]),
        st.sampled_from(["n1", "n2", "n3"]),
    ),
    max_size=60,
).map(
    lambda items: sorted_by_time(
        [make_alert(t, source=s, category=c) for t, c, s in items]
    )
)


@given(alert_streams)
@settings(max_examples=200)
def test_property_simultaneous_output_contained_in_serial(alerts):
    """Anything Algorithm 3.1 keeps, the serial pipeline keeps too: the
    simultaneous filter's suppression condition (any same-category alert
    within T) is strictly broader at every step."""
    simultaneous = {id(a) for a in list(log_filter(alerts))}
    serial = {id(a) for a in list(serial_filter(alerts))}
    assert simultaneous <= serial


@given(alert_streams)
@settings(max_examples=200)
def test_property_both_keep_first_alert(alerts):
    if not alerts:
        return
    assert list(serial_filter(alerts))[0] is alerts[0]
    assert list(log_filter(alerts))[0] is alerts[0]


@given(alert_streams)
@settings(max_examples=100)
def test_property_single_source_streams_agree(alerts):
    """With one source the spatial stage is a no-op and the algorithms
    coincide."""
    single = [a for a in alerts if a.source == "n1"]
    assert [id(a) for a in list(serial_filter(single))] == [
        id(a) for a in list(log_filter(single))
    ]
