"""Unit tests for the per-category predictor ensemble."""

import numpy as np

from repro.prediction.base import Predictor, Warning_
from repro.prediction.ensemble import DEFAULT_FACTORIES, PredictorEnsemble
from repro.prediction.features import AlertHistory

from ..conftest import make_alert


def _two_signature_history():
    """Two failure categories with *different* signatures, repeating
    identically across train/validation/test thirds:

    * SIGNALED failures are always preceded by a PRE alert ~5 min earlier
      (precursor-predictable);
    * RANDOM failures arrive alone (no signature).
    """
    rng = np.random.default_rng(21)
    alerts = []
    t = 0.0
    for _ in range(60):
        t += float(rng.uniform(2e4, 4e4))
        alerts.append(make_alert(t, category="PRE"))
        alerts.append(make_alert(t + 300.0, category="SIGNALED"))
    t = 500.0
    for _ in range(60):
        t += float(rng.uniform(2e4, 4e4))
        alerts.append(make_alert(t, category="RANDOM"))
    return AlertHistory(alerts)


class TestEnsemble:
    def test_routes_signaled_category_to_precursor(self):
        history = _two_signature_history()
        t0, t1 = history.first_time(), history.last_time()
        cut1 = t0 + (t1 - t0) * 0.5
        cut2 = t0 + (t1 - t0) * 0.75
        ensemble = PredictorEnsemble(min_f1=0.3)
        ensemble.fit(history, (t0, cut1), (cut1, cut2))
        assert "SIGNALED" in ensemble.members
        assert ensemble.members["SIGNALED"].kind == "precursor"

    def test_unsignatured_category_gets_no_member(self):
        """'Different categories of failures have different predictive
        signatures (if any)' — RANDOM has none, so the ensemble must stay
        silent rather than alarm on noise."""
        history = _two_signature_history()
        t0, t1 = history.first_time(), history.last_time()
        cut1 = t0 + (t1 - t0) * 0.5
        cut2 = t0 + (t1 - t0) * 0.75
        ensemble = PredictorEnsemble(min_f1=0.3)
        ensemble.fit(history, (t0, cut1), (cut1, cut2))
        assert "RANDOM" not in ensemble.members

    def test_test_span_scores(self):
        history = _two_signature_history()
        t0, t1 = history.first_time(), history.last_time()
        cut1 = t0 + (t1 - t0) * 0.5
        cut2 = t0 + (t1 - t0) * 0.75
        ensemble = PredictorEnsemble(min_f1=0.3)
        ensemble.fit(history, (t0, cut1), (cut1, cut2))
        scores = ensemble.score(history, cut2, t1)
        assert scores["SIGNALED"].recall > 0.7
        assert scores["SIGNALED"].precision > 0.7

    def test_warnings_merged_and_sorted(self):
        history = _two_signature_history()
        t0, t1 = history.first_time(), history.last_time()
        cut1 = t0 + (t1 - t0) * 0.5
        cut2 = t0 + (t1 - t0) * 0.75
        ensemble = PredictorEnsemble(min_f1=0.3)
        ensemble.fit(history, (t0, cut1), (cut1, cut2))
        warnings = ensemble.warnings(history, cut2, t1)
        times = [w.t for w in warnings]
        assert times == sorted(times)

    def test_summary_renders(self):
        history = _two_signature_history()
        t0, t1 = history.first_time(), history.last_time()
        cut1 = t0 + (t1 - t0) * 0.5
        cut2 = t0 + (t1 - t0) * 0.75
        ensemble = PredictorEnsemble(min_f1=0.3)
        ensemble.fit(history, (t0, cut1), (cut1, cut2))
        text = ensemble.summary()
        assert "SIGNALED" in text

    def test_sparse_categories_skipped(self):
        history = AlertHistory([make_alert(1.0, category="ONCE")])
        ensemble = PredictorEnsemble()
        ensemble.fit(history, (0.0, 0.5), (0.5, 2.0))
        assert ensemble.members == {}
        assert "(none" in ensemble.summary()


class ScriptedPredictor(Predictor):
    """Warns at fixed times — lets a test dictate validation scores."""

    def __init__(self, target, warn_times):
        self.target = target
        self._times = warn_times

    def train(self, history, t0, t1):
        pass

    def warnings(self, history, t0, t1):
        return [Warning_(t=t, category=self.target, score=1.0)
                for t in self._times if t0 <= t < t1]


def scripted(warn_times):
    return lambda target: ScriptedPredictor(target, warn_times)


class TestSelectionGuards:
    """The two selection guarantees the online ensemble builds on:
    a cries-wolf candidate is never selectable, and ties are broken
    deterministically (alphabetically first kind wins)."""

    #: Failures every 1000 s; scoring lead window [10, 500] so each
    #: warning can credit exactly one failure.
    FAILURES = (1000.0, 2000.0, 3000.0, 4000.0)
    #: One correct warning 100 s before each failure...
    CORRECT = (900.0, 1900.0, 2900.0, 3900.0)
    #: ...and false alarms past the last failure's lead window.
    FALSE = (4600.0, 4700.0, 4800.0, 4900.0)

    def _history(self):
        return AlertHistory(
            [make_alert(t, category="FAIL") for t in self.FAILURES]
        )

    def _fit(self, factories):
        ensemble = PredictorEnsemble(
            factories=factories, min_f1=0.2, min_precision=0.6,
            min_failures=4, lead_min=10.0, lead_max=500.0,
        )
        return ensemble.fit(self._history(), (0.0, 500.0), (500.0, 5000.0))

    def test_cries_wolf_candidate_never_selected(self):
        """The wolf has recall 1.0 and the best F1 (0.67 vs 0.4) *and*
        sorts first — only the precision guard can exclude it.  A
        candidate that never warned is judged on F1 alone, not treated
        as crying wolf."""
        ensemble = self._fit({
            "awolf": scripted(self.CORRECT + self.FALSE),   # P=0.5 R=1.0
            "mute": scripted(()),                           # never warns
            "zhonest": scripted(self.CORRECT[:1]),          # P=1.0 R=0.25
        })
        member = ensemble.members["FAIL"]
        assert member.kind == "zhonest"
        assert member.validation.precision == 1.0

    def test_cries_wolf_alone_means_no_member(self):
        """With only the wolf on offer the category gets *no* predictor:
        'a predictor that cries wolf is worse than none'."""
        ensemble = self._fit({"awolf": scripted(self.CORRECT + self.FALSE)})
        assert ensemble.members == {}

    def test_equal_scores_select_first_kind_deterministically(self):
        """Two candidates with identical validation scores: the
        alphabetically first kind wins, independent of the factory
        dict's insertion order."""
        times = self.CORRECT[:2]
        for factories in (
            {"beta": scripted(times), "alpha": scripted(times)},
            {"alpha": scripted(times), "beta": scripted(times)},
        ):
            ensemble = self._fit(factories)
            assert ensemble.members["FAIL"].kind == "alpha"

    def test_online_refit_forwards_selection_thresholds(self, monkeypatch):
        """The streaming ensemble delegates selection to this offline
        ensemble — the config's lead window must reach the constructor,
        and the selection thresholds must stay this ensemble's own, or
        the online path silently loses the cries-wolf guard."""
        from repro.streaming import PredictionConfig
        from repro.streaming import online as online_mod

        captured = {}
        real = online_mod.PredictorEnsemble

        def spy(**kwargs):
            captured.update(kwargs)
            captured["ensemble"] = real(**kwargs)
            return captured["ensemble"]

        monkeypatch.setattr(online_mod, "PredictorEnsemble", spy)
        monkeypatch.setattr(online_mod, "FIRST_REFIT", 8)
        config = PredictionConfig(lead_min=20.0, lead_max=900.0)
        ensemble = online_mod.OnlineEnsemble(config)
        ensemble.advance(
            [(float(i) * 100.0, "CAT", "n0", None) for i in range(1, 40)]
        )
        assert ensemble.refits >= 1
        assert set(captured) == {"lead_min", "lead_max", "ensemble"}
        assert captured["lead_min"] == 20.0
        assert captured["lead_max"] == 900.0
        assert captured["ensemble"].min_precision == 0.25
        assert captured["ensemble"].min_f1 == 0.2
        assert sorted(captured["ensemble"].factories) == sorted(
            DEFAULT_FACTORIES
        )
