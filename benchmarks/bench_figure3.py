"""Bench F3: regenerate Figure 3 (GM_PAR vs GM_LANAI correlation).

Shape claims from the paper: "GM_LANAI messages do not always follow
GM_PAR messages, nor vice versa.  However, the correlation is clear" —
i.e. the coincidence rate of the rarer tag is high, but neither tag is a
strict subset of the other, and a plain per-category filter keeps both
tags (the situation "current tagging and filtering techniques do not
adequately address"), while the correlation-aware filter coalesces them.
"""

from repro.analysis.correlation import tag_correlation
from repro.core.correlated_filter import alias_key, learn_correlated_groups
from repro.core.filtering import SpatioTemporalFilter, log_filter, sorted_by_time
from repro.reporting.figures import figure3

from _bench_utils import write_artifact


def test_figure3_gm_correlation(benchmark, liberty_full_alerts):
    alerts = liberty_full_alerts.raw_alerts
    corr = benchmark(tag_correlation, alerts, "GM_PAR", "GM_LANAI", 600.0)
    text = figure3(alerts, window=600.0)
    write_artifact("figure3.txt", text)

    assert corr.is_correlated
    assert corr.coincidence_rate >= 0.5
    # Not a strict implication in either direction (paper: "do not always
    # follow ... nor vice versa"): GM_PAR fires more often than GM_LANAI.
    assert corr.count_a > corr.count_b > 0


def test_figure3_correlation_aware_filtering(benchmark, liberty_full_alerts):
    """The Section 5 recommendation closes the Figure 3 gap: learned alias
    groups coalesce the pair to one alert per failure."""
    alerts = sorted_by_time(
        [
            a for a in liberty_full_alerts.raw_alerts
            if a.category in ("GM_PAR", "GM_LANAI")
        ]
    )

    def run():
        groups = learn_correlated_groups(alerts, window=600.0)
        grouped = SpatioTemporalFilter(600.0, key=alias_key(groups))
        return groups, list(filter(grouped.offer, alerts))

    groups, coalesced = benchmark(run)
    assert frozenset({"GM_PAR", "GM_LANAI"}) in groups

    plain_kept = list(log_filter(alerts, 600.0))
    assert len(coalesced) < len(plain_kept)
