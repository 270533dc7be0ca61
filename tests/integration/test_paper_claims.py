"""Integration tests pinning the paper's headline claims.

Each test names the claim it reproduces; together they are the "shape"
checklist of DESIGN.md section 4.  Run at moderate scale so volume-driven
claims have enough mass.
"""

import pytest

from repro import api as pipeline
from repro.analysis.correlation import spatial_correlation, tag_correlation
from repro.analysis.distributions import exponentiality_score
from repro.analysis.interarrival import interarrival_times, log_histogram
from repro.analysis.severity_eval import score_severity_detector
from repro.core.rules import get_ruleset
from repro.core.serial_filter import serial_filter
from repro.core.filtering import log_filter, sorted_by_time
from repro.core.tagging import Tagger
from repro.simulation.generator import generate_log

SEED = 1234


@pytest.fixture(scope="module")
def bgl_medium():
    return pipeline.run_system("bgl", scale=1e-2, seed=SEED)


@pytest.fixture(scope="module")
def spirit_medium():
    return pipeline.run_system("spirit", scale=1e-4, seed=SEED)


@pytest.fixture(scope="module")
def thunderbird_medium():
    # Alert bursts at 3e-3 of paper volume; background thinned further
    # (the claims under test are all alert-side).
    return pipeline.run_system(
        "thunderbird", scale=3e-3, seed=SEED, background_scale=1e-4,
    )


@pytest.fixture(scope="module")
def liberty_full_incident():
    # Full alert multiplicities (Liberty's 2452 alerts are cheap), but
    # background traffic scaled down — its 265 M chaff messages are not.
    return pipeline.run_system(
        "liberty", scale=1.0, seed=SEED, background_scale=1e-4,
    )


class TestSeverityClaims:
    def test_bgl_fatal_failure_tagging_has_59_percent_fp_zero_fn(
        self, bgl_medium
    ):
        """Section 3.2: 'a false negative rate of 0% but a false positive
        rate of 59.34%.'"""
        gen = generate_log("bgl", scale=1e-2, seed=SEED, corruption=0.0)
        score = score_severity_detector(gen.records, Tagger(get_ruleset("bgl")))
        assert score.false_negative_rate == 0.0
        # At reduced scale the rare-category incident floors inflate the
        # alert side slightly, pulling the FP rate a few points below the
        # paper's full-scale 59.34% (the exact rate is pinned
        # scale-independently in tests/analysis/test_severity_eval.py).
        assert score.false_positive_rate == pytest.approx(0.5934, abs=0.06)

    def test_redstorm_crit_dominated_by_disk_alerts(self):
        """Table 6: CRIT is ~99% BUS_PAR disk-failure alerts; 'except for
        this failure case ... syslog severity is not a reliable failure
        indicator.'"""
        result = pipeline.run_system("redstorm", scale=1e-3, seed=SEED)
        rows = dict(
            (label, (messages, alerts))
            for label, messages, _, alerts, _ in result.severity_tab.rows(
                ["EMERG", "ALERT", "CRIT", "ERR", "WARNING", "NOTICE",
                 "INFO", "DEBUG"]
            )
        )
        crit_messages, crit_alerts = rows["CRIT"]
        assert crit_alerts / crit_messages > 0.9
        # INFO carries alerts too (ADDR_ERR/CMD_ABORT) while NOTICE has
        # none: severity order does not order alert-ness.
        assert rows["INFO"][1] > 0
        assert rows["NOTICE"][1] == 0


class TestFilteringClaims:
    def test_spirit_disk_storm_collapses(self, spirit_medium):
        """Section 3.3.1: tens of millions of disk alerts reduce to a
        handful of filtered alerts."""
        counts = spirit_medium.category_counts()
        raw, filtered = counts["EXT_CCISS"]
        assert raw > 5000
        assert filtered <= 40  # paper: 29

    def test_spirit_filtered_dominated_by_software(self, spirit_medium):
        """Table 3's flip: hardware dominates raw alerts, software
        dominates filtered alerts."""
        from repro.core.tagging import count_by_type

        raw_types = count_by_type(spirit_medium.raw_alerts)
        filtered_types = count_by_type(spirit_medium.filtered_alerts)
        assert raw_types["H"] > raw_types["S"]
        assert filtered_types["S"] > filtered_types["H"]

    def test_simultaneous_removes_more_than_serial(self, spirit_medium):
        """Section 3.3.2: the simultaneous filter removes duplicates the
        serial pipeline leaves (dozens of FPs vs at most one TP)."""
        alerts = sorted_by_time(spirit_medium.raw_alerts)
        simultaneous = list(log_filter(alerts))
        serial = list(serial_filter(alerts))
        assert len(simultaneous) <= len(serial)
        kept_by_serial = {id(a) for a in serial}
        assert [a for a in simultaneous if id(a) not in kept_by_serial] == []

    def test_sn373_concentration(self, spirit_medium):
        """Section 3.3.1: 'node sn373 logged ... more than half of all
        Spirit alerts.'"""
        from collections import Counter

        sources = Counter(a.source for a in spirit_medium.raw_alerts)
        assert sources["sn373"] / len(spirit_medium.raw_alerts) > 0.4

    def test_vapi_hot_node_reduction(self, thunderbird_medium):
        """Section 3.3.1: one node produced 643,925 VAPI alerts 'of which
        filtering removes all but 246'."""
        vapi_raw = [
            a for a in thunderbird_medium.raw_alerts if a.category == "VAPI"
        ]
        vapi_filtered = [
            a for a in thunderbird_medium.filtered_alerts
            if a.category == "VAPI"
        ]
        assert len(vapi_raw) > 20 * len(vapi_filtered)
        hot_raw = sum(1 for a in vapi_raw if a.source == "tn345")
        assert hot_raw / len(vapi_raw) > 0.1


class TestDistributionClaims:
    def test_ecc_interarrivals_look_independent(self, thunderbird_medium):
        """Section 4 / Figure 5: ECC alerts 'behaved as expected'
        (exponential-ish); VAPI does not."""
        by_cat = {}
        for alert in thunderbird_medium.filtered_alerts:
            by_cat.setdefault(alert.category, []).append(alert)
        ecc_gaps = interarrival_times(by_cat["ECC"])
        vapi_gaps = interarrival_times(by_cat["VAPI"])
        assert exponentiality_score(ecc_gaps) > exponentiality_score(vapi_gaps)

    def test_bgl_bimodal_spirit_unimodal(self, bgl_medium, spirit_medium):
        """Figure 6: 'correlated alerts on BG/L (a) and largely independent
        categories on Spirit (b)' — bimodal vs unimodal filtered
        interarrival log-histograms."""
        bgl_gaps = interarrival_times(bgl_medium.filtered_alerts)
        spirit_gaps = interarrival_times(spirit_medium.filtered_alerts)
        bgl_hist = log_histogram(bgl_gaps, bins_per_decade=2)
        spirit_hist = log_histogram(spirit_gaps, bins_per_decade=2)
        assert bgl_hist.is_bimodal()
        assert not spirit_hist.is_bimodal()

    def test_cpu_alerts_spatially_correlated(self):
        """Section 4: the SMP clock bug makes CPU alerts land on many
        nodes of the same job at once, unlike per-node ECC failures.

        Needs per-incident multiplicities near the paper's ratio (~7.5
        CPU alerts per failure), so run alert volume at a scale where the
        bursts are real bursts; background is irrelevant to the claim.
        """
        gen = generate_log(
            "thunderbird", scale=0.02, incident_scale=0.02,
            background_scale=0.0, seed=SEED, corruption=0.0,
        )
        tagger = Tagger(get_ruleset("thunderbird"))
        alerts = sorted_by_time(list(tagger.tag_stream(gen.records)))
        correlations = spatial_correlation(alerts)
        assert correlations["CPU"].mean_distinct_sources > (
            correlations["ECC"].mean_distinct_sources
        )
        assert correlations["CPU"].is_spatially_correlated
        assert not correlations["ECC"].is_spatially_correlated


class TestLibertyClaims:
    def test_pbs_bug_statistics(self, liberty_full_incident):
        """Section 3.3.1: 2231 task_check alerts, 'up to 74 times' per
        job."""
        pbs = [
            a for a in liberty_full_incident.raw_alerts
            if a.category == "PBS_CHK"
        ]
        assert len(pbs) == pytest.approx(2231, rel=0.02)
        # Largest single burst stays within the same order as the paper's
        # 74-repeat cap.
        from repro.core.tupling import tuple_alerts

        sizes = [t.size for t in tuple_alerts(sorted_by_time(pbs), window=60)]
        assert max(sizes) <= 200

    def test_gm_pair_correlated(self, liberty_full_incident):
        """Figure 3: GM_PAR/GM_LANAI correlation is clear."""
        corr = tag_correlation(
            liberty_full_incident.raw_alerts, "GM_PAR", "GM_LANAI",
            window=600.0,
        )
        assert corr.is_correlated

    def test_pbs_chk_and_bfd_cluster_in_one_quarter(
        self, liberty_full_incident
    ):
        """Figure 4: the horizontal clusters of PBS_CHK and PBS_BFD are
        instances of individual failures, confined in time."""
        scenario = liberty_full_incident.generated.scenario
        span = scenario.end_epoch - scenario.start_epoch
        for category in ("PBS_CHK", "PBS_BFD"):
            times = [
                a.timestamp for a in liberty_full_incident.raw_alerts
                if a.category == category
            ]
            fractions = [(t - scenario.start_epoch) / span for t in times]
            assert min(fractions) >= 0.70
            assert max(fractions) <= 1.01


class TestVolumeOrderings:
    def test_spirit_has_most_alerts_liberty_fewest(self, all_results):
        alerts = {
            name: result.raw_alert_count
            for name, result in all_results.items()
        }
        assert max(alerts, key=alerts.get) == "spirit"
        assert min(alerts, key=alerts.get) == "liberty"

    def test_category_counts_observed(self, all_results):
        """Table 2's categories column (small scales may miss the rarest
        categories, so observed <= defined)."""
        expected_max = {
            "bgl": 41, "thunderbird": 10, "redstorm": 12,
            "spirit": 8, "liberty": 6,
        }
        for name, result in all_results.items():
            assert 1 <= result.observed_categories <= expected_max[name]
