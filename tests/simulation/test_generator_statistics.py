"""Statistical validation of the generated logs against the paper's
distributions — the deeper checks behind the headline tables."""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.phases import detect_phase_shifts
from repro.analysis.timeseries import hourly_message_counts, messages_by_source
from repro.logmodel.record import Channel
from repro.simulation.generator import generate_log

SEED = 31337


@pytest.fixture(scope="module")
def bgl_proportional():
    """BG/L scaled proportionally so severity percentages are Table 5's."""
    return list(
        generate_log(
            "bgl", scale=3e-3, incident_scale=3e-3, seed=SEED,
            corruption=0.0,
        ).records
    )


@pytest.fixture(scope="module")
def redstorm_proportional():
    return list(
        generate_log(
            "redstorm", scale=1e-3, incident_scale=1e-3, seed=SEED,
            corruption=0.0,
        ).records
    )


@pytest.fixture(scope="module")
def liberty_stream():
    return list(
        generate_log("liberty", scale=3e-4, seed=SEED, corruption=0.0).records
    )


class TestBglSeverityMix:
    """Table 5's message-severity percentages, within sampling noise."""

    EXPECTED = {
        "FATAL": 0.1802,
        "FAILURE": 0.0003,
        "SEVERE": 0.0041,
        "ERROR": 0.0237,
        "WARNING": 0.0049,
        "INFO": 0.7868,
    }

    def test_proportions(self, bgl_proportional):
        counts = Counter(r.severity for r in bgl_proportional)
        total = sum(counts.values())
        for label, expected in self.EXPECTED.items():
            measured = counts[label] / total
            assert measured == pytest.approx(expected, abs=0.02), label


class TestRedStormChannelMix:
    def test_ras_path_dominates_message_volume(self, redstorm_proportional):
        """Table 2 vs Table 6: only ~25.5 M of Red Storm's 219 M messages
        are syslog; the RAS TCP path carries the rest (~88%)."""
        channels = Counter(r.channel for r in redstorm_proportional)
        total = sum(channels.values())
        assert channels[Channel.RAS_TCP] / total == pytest.approx(0.88, abs=0.03)

    def test_ddn_messages_present_but_minor(self, redstorm_proportional):
        channels = Counter(r.channel for r in redstorm_proportional)
        assert 0 < channels[Channel.DDN] < channels[Channel.SYSLOG_UDP]


class TestLibertyRateProfile:
    """Figure 2(a)'s calibrated step structure in the background rate."""

    def test_detected_upgrade_step_magnitude(self, liberty_stream):
        series = hourly_message_counts(liberty_stream)
        shifts = detect_phase_shifts(series)
        assert shifts
        # The calibrated profile steps 0.45 -> 1.60 (a 3.6x jump) at 28%.
        span = series.end - series.start
        upgrade = min(
            shifts,
            key=lambda s: abs((s.timestamp - series.start) / span - 0.28),
        )
        assert upgrade.magnitude == pytest.approx(1.60 / 0.45, rel=0.3)

    def test_segment_means_follow_profile_ordering(self, liberty_stream):
        series = hourly_message_counts(liberty_stream)
        shifts = detect_phase_shifts(series)
        cuts = [shift.bucket_index for shift in shifts]
        means = [phase.mean() for phase in np.split(series.counts, cuts)]
        # The first phase (0.45x) is the quietest of all phases.
        assert means[0] == min(means)


class TestSourceSkew:
    def test_admin_concentration_matches_figure2b(self, liberty_stream):
        """Admin nodes carry a disproportionate share: top-2 sources are
        the admin pair holding >10% of traffic across ~270 nodes."""
        distribution = messages_by_source(liberty_stream)
        ranked = distribution.ranked()
        top_two = {name for name, _ in ranked[:2]}
        assert top_two == {"ladmin1", "ladmin2"}
        assert distribution.concentration(2) > 0.10

    def test_rank_distribution_spans_orders_of_magnitude(self, liberty_stream):
        distribution = messages_by_source(liberty_stream)
        ranked = [count for _, count in distribution.ranked()]
        assert ranked[0] / ranked[-1] > 100


class TestInterarrivalMechanics:
    def test_burst_gaps_stay_under_threshold(self):
        """Within one incident the generator must keep every gap under the
        5 s filter threshold, or raw->filtered coalescing would leak."""
        gen = generate_log("thunderbird", scale=3e-3, seed=SEED,
                           background_scale=0.0, corruption=0.0)
        vapi_times = {}
        for record in gen.records:
            if "Local Catastrophic Error" in record.body:
                vapi_times.setdefault(record.source, []).append(
                    record.timestamp
                )
        # For the hot node (long chains), consecutive same-source gaps
        # inside a burst are < 5 s or mark a new incident (>> 5 s).
        times = sorted(vapi_times.get("tn345", []))
        assert len(times) > 100
        gaps = np.diff(times)
        mid_range = ((gaps >= 5.0) & (gaps < 60.0)).sum()
        assert mid_range / len(gaps) < 0.05
