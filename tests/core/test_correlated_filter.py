"""Unit tests for correlation-aware filtering (the Figure 3 problem)."""

import numpy as np
import pytest

from repro.core.correlated_filter import (
    alias_key,
    learn_correlated_groups,
    pair_cooccurrence,
)
from repro.core.filtering import SpatioTemporalFilter, sorted_by_time

from ..conftest import make_alert


def _figure3_style_alerts(n_failures=12, lanai_probability=0.7, seed=3):
    """GM_PAR-like failures occasionally followed seconds later by a
    GM_LANAI-like echo — Figure 3's shape."""
    rng = np.random.default_rng(seed)
    alerts = []
    t = 0.0
    for _ in range(n_failures):
        t += float(rng.uniform(5e4, 2e5))
        alerts.append(make_alert(t, category="GM_PAR", source="n1"))
        if rng.random() < lanai_probability:
            alerts.append(
                make_alert(t + float(rng.uniform(1, 20)),
                           category="GM_LANAI", source="n1")
            )
    return sorted_by_time(alerts)


class TestPairCooccurrence:
    def test_counts_windowed_pairs(self):
        alerts = sorted_by_time(
            [
                make_alert(0.0, category="A"),
                make_alert(5.0, category="B"),
                make_alert(1000.0, category="A"),
                make_alert(1001.0, category="B"),
            ]
        )
        counts = pair_cooccurrence(alerts, window=60.0)
        assert counts == {("A", "B"): 2}

    def test_same_category_not_paired(self):
        alerts = [make_alert(0.0, category="A"), make_alert(1.0, category="A")]
        assert pair_cooccurrence(alerts) == {}

    def test_outside_window_not_paired(self):
        alerts = sorted_by_time(
            [make_alert(0.0, category="A"), make_alert(500.0, category="B")]
        )
        assert pair_cooccurrence(alerts, window=60.0) == {}


class TestLearnGroups:
    def test_learns_the_figure3_pair(self):
        groups = learn_correlated_groups(_figure3_style_alerts())
        assert frozenset({"GM_PAR", "GM_LANAI"}) in groups

    def test_one_shot_iterable_learns_the_same_groups(self):
        """The alerts are read once: an iterator, which a second pass
        would find empty, learns what the list does."""
        alerts = _figure3_style_alerts()
        assert learn_correlated_groups(iter(alerts)) == \
            learn_correlated_groups(alerts) == \
            [frozenset({"GM_PAR", "GM_LANAI"})]

    def test_independent_categories_not_grouped(self):
        rng = np.random.default_rng(4)
        alerts = sorted_by_time(
            [make_alert(float(t), category="X")
             for t in np.cumsum(rng.exponential(5e4, size=30))]
            + [make_alert(float(t), category="Y")
               for t in np.cumsum(rng.exponential(7e4, size=30))]
        )
        assert learn_correlated_groups(alerts) == []

    def test_transitive_union(self):
        alerts = []
        for i in range(6):
            base = i * 1e5
            alerts.append(make_alert(base, category="A"))
            alerts.append(make_alert(base + 2, category="B"))
            alerts.append(make_alert(base + 4, category="C"))
        groups = learn_correlated_groups(sorted_by_time(alerts))
        assert frozenset({"A", "B", "C"}) in groups


def grouped(alerts, groups, threshold=5.0):
    clock = SpatioTemporalFilter(threshold, key=alias_key(groups))
    return list(filter(clock.offer, alerts))


class TestCorrelationAwareFilter:
    def test_grouped_categories_share_a_clock(self):
        alerts = _figure3_style_alerts(lanai_probability=1.0)
        kept = grouped(alerts, [frozenset({"GM_PAR", "GM_LANAI"})], 60.0)
        # One alert per failure: the GM_LANAI echoes are coalesced away.
        assert all(a.category == "GM_PAR" for a in kept)
        assert len(kept) == 12

    def test_plain_filter_keeps_both_tags(self):
        """Without groups, 'correlated alerts relegated to different
        categories' both survive — the behavior the paper criticizes."""
        alerts = _figure3_style_alerts(lanai_probability=1.0)
        kept = grouped(alerts, [], 60.0)
        assert {a.category for a in kept} == {"GM_PAR", "GM_LANAI"}
        assert len(kept) == 24

    def test_ungrouped_categories_unaffected(self):
        alerts = sorted_by_time(
            [make_alert(0.0, category="C"), make_alert(1.0, category="C")]
        )
        assert len(grouped(alerts, [frozenset({"A", "B"})])) == 1

    def test_group_key(self):
        key = alias_key([frozenset({"B", "A"})])
        assert key(make_alert(0.0, category="A")) == "A"
        assert key(make_alert(0.0, category="B")) == "A"
        assert key(make_alert(0.0, category="C")) == "C"

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="multiple groups"):
            alias_key([frozenset({"A", "B"}), frozenset({"B", "C"})])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SpatioTemporalFilter(-1, key=alias_key([frozenset({"A", "B"})]))
