"""Unit tests for prediction evaluation arithmetic."""

import pytest

from repro.prediction.base import PredictionScore, Warning_, evaluate


def _warnings(times, category="X"):
    return [Warning_(t, category, 1.0) for t in times]


class TestEvaluate:
    def test_perfect_prediction(self):
        score = evaluate(
            _warnings([90.0]), [120.0], "X", lead_min=10, lead_max=60,
        )
        assert score.recall == 1.0
        assert score.precision == 1.0
        assert score.f1 == 1.0

    def test_warning_too_late_to_act(self):
        # 5 s of lead < lead_min: useless.
        score = evaluate(
            _warnings([115.0]), [120.0], "X", lead_min=10, lead_max=60,
        )
        assert score.predicted_failures == 0
        assert score.correct_warnings == 0

    def test_warning_too_early(self):
        score = evaluate(
            _warnings([10.0]), [120.0], "X", lead_min=10, lead_max=60,
        )
        assert score.predicted_failures == 0

    def test_false_alarm_hurts_precision_only(self):
        score = evaluate(
            _warnings([90.0, 500.0]), [120.0], "X", lead_min=10, lead_max=60,
        )
        assert score.recall == 1.0
        assert score.precision == 0.5

    def test_missed_failure_hurts_recall_only(self):
        score = evaluate(
            _warnings([90.0]), [120.0, 900.0], "X", lead_min=10, lead_max=60,
        )
        assert score.recall == 0.5
        assert score.precision == 1.0

    def test_foreign_category_warnings_ignored(self):
        score = evaluate(
            _warnings([90.0], category="OTHER"), [120.0], "X",
            lead_min=10, lead_max=60,
        )
        assert score.warnings == 0
        assert score.recall == 0.0

    def test_empty_inputs(self):
        score = evaluate([], [], "X")
        assert score.f1 == 0.0
        assert score.precision == 0.0
        assert score.recall == 0.0

    def test_invalid_lead_window(self):
        with pytest.raises(ValueError):
            evaluate([], [], "X", lead_min=60, lead_max=60)
        with pytest.raises(ValueError):
            evaluate([], [], "X", lead_min=-1, lead_max=60)

    def test_one_warning_can_cover_multiple_failures(self):
        score = evaluate(
            _warnings([100.0]), [120.0, 140.0], "X", lead_min=10, lead_max=60,
        )
        assert score.predicted_failures == 2
        assert score.correct_warnings == 1


class TestScoreProperties:
    def test_f1_harmonic_mean(self):
        score = PredictionScore(
            target="X", failures=4, predicted_failures=2,
            warnings=4, correct_warnings=4,
        )
        assert score.precision == 1.0
        assert score.recall == 0.5
        assert score.f1 == pytest.approx(2 / 3)


class TestLeadWindowUpFront:
    """An online lead window is checked with ``evaluate``'s rule when it
    is built, not at the first refit thousands of records in."""

    @pytest.mark.parametrize("lead", [(100.0, 50.0), (60.0, 60.0), (-1.0, 60.0)])
    def test_construction_rejects_a_window_evaluate_rejects(self, lead):
        from repro.streaming import PredictionConfig

        with pytest.raises(ValueError, match="lead_min < lead_max"):
            PredictionConfig(*lead)

    def test_run_stream_fails_before_the_stream_is_consumed(self):
        from repro import api
        from repro.simulation.generator import generate_log
        from repro.streaming import PredictionConfig

        consumed = []

        def stream():
            for record in generate_log("spirit", scale=1e-5, seed=3).records:
                consumed.append(record)
                yield record

        with pytest.raises(ValueError, match="lead_min < lead_max"):
            api.run_stream(
                stream(), "spirit", predict=PredictionConfig(100.0, 50.0)
            )
        assert consumed == []
