"""Consistency tests tying the calibration tables to the paper's numbers.

These are the reproduction's anchor: the scenario totals must equal the
paper's Table 2/3/4 figures exactly, or every downstream "shape" claim is
built on sand.
"""

import pytest

from repro.core.categories import AlertType
from repro.core.rules import get_ruleset
from repro.simulation.calibration import (
    PROFILES,
    SCENARIOS,
    CategoryCalibration,
    SystemScenario,
    get_scenario,
)
from repro.systems.specs import LOG_SPECS, PAPER_TOTAL_ALERTS


@pytest.mark.parametrize("system", sorted(SCENARIOS))
def test_raw_alert_totals_match_table2(system):
    # Spirit's Table 4 column sums to one less than its Table 2 total (an
    # inconsistency in the paper itself); we follow Table 4.
    expected = LOG_SPECS[system].alerts
    tolerance = 1 if system == "spirit" else 0
    assert abs(SCENARIOS[system].raw_alert_total - expected) <= tolerance


@pytest.mark.parametrize("system", sorted(SCENARIOS))
def test_message_totals_match_table2(system):
    expected = LOG_SPECS[system].messages
    tolerance = 1 if system == "spirit" else 0
    scenario = SCENARIOS[system]
    total = scenario.background_total + scenario.raw_alert_total
    assert abs(total - expected) <= tolerance


def test_grand_alert_total_matches_abstract():
    total = sum(s.raw_alert_total for s in SCENARIOS.values())
    assert abs(total - PAPER_TOTAL_ALERTS) <= 1


@pytest.mark.parametrize("system", sorted(SCENARIOS))
def test_category_calibrations_cover_the_ruleset(system):
    scenario = SCENARIOS[system]
    rule_names = set(get_ruleset(system).names())
    calibrated = {cat.category for cat in scenario.categories}
    assert calibrated == rule_names


def test_filtered_totals_match_table4():
    expected = {
        "bgl": 1202,
        "thunderbird": 2088,
        "redstorm": 1430,
        "spirit": 4875,
        "liberty": 1050,
    }
    for system, value in expected.items():
        assert sum(cat.filtered for cat in SCENARIOS[system].categories) == value


def test_table3_type_sums_emerge_from_table4():
    """Hardware/Software/Indeterminate raw totals across all systems must
    reproduce Table 3's raw column exactly."""
    totals = {t: 0 for t in AlertType}
    for system, scenario in SCENARIOS.items():
        ruleset = get_ruleset(system)
        for cat in scenario.categories:
            totals[ruleset.get(cat.category).alert_type] += cat.raw
    assert totals[AlertType.HARDWARE] == 174_586_516
    assert totals[AlertType.SOFTWARE] == 144_899
    assert abs(totals[AlertType.INDETERMINATE] - 3_350_044) <= 1


def test_headline_category_counts_from_table4():
    checks = [
        ("bgl", "KERNDTLB", 152_734, 37),
        ("thunderbird", "VAPI", 3_229_194, 276),
        ("redstorm", "BUS_PAR", 1_550_217, 5),
        ("spirit", "EXT_CCISS", 103_818_910, 29),
        ("liberty", "PBS_CHK", 2_231, 920),
    ]
    for system, name, raw, filtered in checks:
        cat = SCENARIOS[system].get_category(name)
        assert (cat.raw, cat.filtered) == (raw, filtered)


def test_scenario_windows_match_table2():
    for system, scenario in SCENARIOS.items():
        spec = LOG_SPECS[system]
        assert scenario.start_date == spec.start_date
        assert scenario.days == spec.days
        assert scenario.end_epoch - scenario.start_epoch == spec.days * 86400.0


class TestCategoryCalibration:
    def test_raw_below_filtered_rejected(self):
        with pytest.raises(ValueError, match="raw"):
            CategoryCalibration(category="X", raw=1, filtered=2)

    def test_zero_incidents_rejected(self):
        with pytest.raises(ValueError, match="incident"):
            CategoryCalibration(category="X", raw=5, filtered=0)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            CategoryCalibration(category="X", raw=5, filtered=1,
                                profile="weekend")

    def test_scaling_never_drops_below_incidents(self):
        cat = CategoryCalibration(category="X", raw=1000, filtered=10)
        assert cat.scaled_raw(1e-6) == 10
        assert cat.scaled_raw(0.5) == 500
        assert cat.incidents() == 10
        assert cat.incidents(incident_scale=0.01) == 1

    def test_profiles_are_fractions(self):
        for lo, hi in PROFILES.values():
            assert 0.0 <= lo < hi <= 1.0


class TestScenarioValidation:
    def test_duplicate_categories_rejected(self):
        cat = CategoryCalibration(category="X", raw=5, filtered=1)
        with pytest.raises(ValueError, match="duplicate"):
            SystemScenario(
                system="test", start_date="2005-01-01", days=10,
                categories=(cat, cat), background=(),
            )

    def test_dangling_correlation_rejected(self):
        cat = CategoryCalibration(
            category="X", raw=5, filtered=1, correlate_with="MISSING",
        )
        with pytest.raises(ValueError, match="unknown"):
            SystemScenario(
                system="test", start_date="2005-01-01", days=10,
                categories=(cat,), background=(),
            )

    def test_get_scenario_unknown_raises(self):
        with pytest.raises(KeyError, match="valid"):
            get_scenario("asci-white")


def test_hot_source_encodes_the_papers_case_studies():
    spirit = SCENARIOS["spirit"]
    assert spirit.get_category("EXT_CCISS").hot_source == "sn373"
    tbird = SCENARIOS["thunderbird"]
    assert tbird.get_category("VAPI").hot_raw_fraction == pytest.approx(0.20)


def test_liberty_pbs_bug_is_time_localized():
    liberty = SCENARIOS["liberty"]
    assert liberty.get_category("PBS_CHK").profile == "late_quarter"
    assert liberty.get_category("PBS_BFD").correlate_with == "PBS_CHK"


def test_cpu_clock_bug_is_job_correlated():
    assert SCENARIOS["thunderbird"].get_category("CPU").job_correlated
