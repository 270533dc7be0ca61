"""Unit tests for severity cross-tabulation and detector scoring."""

import pytest

from repro.analysis.severity_eval import (
    DetectorScore,
    SeverityCrossTab,
    score_severity_detector,
)
from repro.core.categories import AlertType, CategoryDef, Ruleset
from repro.core.severity import SeverityTaggerConfig
from repro.core.tagging import Tagger
from repro.logmodel.record import LogRecord


def _ruleset():
    return Ruleset(
        system="test",
        categories=(
            CategoryDef(
                name="BOOM", system="test", alert_type=AlertType.HARDWARE,
                pattern=r"boom",
            ),
        ),
    )


def _record(body, severity):
    return LogRecord(
        timestamp=1.0, source="n1", facility="", body=body, severity=severity,
    )


class TestCrossTab:
    def test_accumulates(self):
        tab = SeverityCrossTab()
        tab.add(_record("boom", "FATAL"), is_alert=True)
        tab.add(_record("ok", "FATAL"), is_alert=False)
        tab.add(_record("ok", "INFO"), is_alert=False)
        assert tab.messages == {"FATAL": 2, "INFO": 1}
        assert tab.alerts == {"FATAL": 1}

    def test_none_label(self):
        tab = SeverityCrossTab()
        tab.add(_record("ok", None), is_alert=False)
        assert tab.messages == {SeverityCrossTab.NONE_LABEL: 1}

    def test_rows_percentages_over_listed_labels_only(self):
        tab = SeverityCrossTab()
        tab.add(_record("boom", "FATAL"), is_alert=True)
        tab.add(_record("ok", "INFO"), is_alert=False)
        tab.add(_record("ok", None), is_alert=False)  # excluded from order
        rows = tab.rows(["FATAL", "INFO"])
        assert rows[0] == ("FATAL", 1, 50.0, 1, 100.0)
        assert rows[1] == ("INFO", 1, 50.0, 0, 0.0)


class TestDetectorScore:
    def test_fp_rate_is_one_minus_precision(self):
        score = DetectorScore(
            true_positives=4, false_positives=6,
            true_negatives=80, false_negatives=0,
        )
        assert score.false_positive_rate == pytest.approx(0.6)
        assert score.precision == pytest.approx(0.4)
        assert score.false_negative_rate == 0.0
        assert score.recall == 1.0

    def test_degenerate_empty(self):
        score = DetectorScore(0, 0, 0, 0)
        assert score.false_positive_rate == 0.0
        assert score.false_negative_rate == 0.0

    def test_scoring_against_expert_tags(self):
        tagger = Tagger(_ruleset())
        records = [
            _record("boom", "FATAL"),    # TP: flagged, real alert
            _record("quiet", "FATAL"),   # FP: flagged, not an alert
            _record("boom", "INFO"),     # FN: real alert, not flagged
            _record("quiet", "INFO"),    # TN
        ]
        score = score_severity_detector(
            records, tagger, SeverityTaggerConfig.bgl_fatal_failure()
        )
        assert (score.true_positives, score.false_positives,
                score.false_negatives, score.true_negatives) == (1, 1, 1, 1)
        assert score.false_positive_rate == pytest.approx(0.5)
        assert score.false_negative_rate == pytest.approx(0.5)


class TestPaperNumberAtFullCalibration:
    def test_bgl_fp_rate_from_calibration_tables(self):
        """Straight from the calibration (scale-independent arithmetic):
        tagging FATAL/FAILURE as alerts gives the paper's 59.34% FP rate."""
        from repro.simulation.calibration import SCENARIOS

        scenario = SCENARIOS["bgl"]
        alert_total = scenario.raw_alert_total          # all FATAL/FAILURE
        flagged_background = sum(
            spec.count for spec in scenario.background
            if spec.severity in ("FATAL", "FAILURE")
        )
        fp_rate = flagged_background / (flagged_background + alert_total)
        assert fp_rate == pytest.approx(0.5934, abs=0.0005)
