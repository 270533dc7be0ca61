"""Unit tests for the Dispersion Frame Technique."""

from repro.prediction.dft import DftPredictor, _rules_fire
from repro.prediction.features import AlertHistory

from ..conftest import make_alert

HOUR = 3600.0
DAY = 86400.0


class TestRules:
    def test_too_little_history(self):
        assert _rules_fire([]) is None
        assert _rules_fire([100.0]) is None

    def test_2_in_1_on_sharp_acceleration(self):
        # Frames: 10000 then 1000: newest <= previous/2.
        assert _rules_fire([0.0, 10_000.0, 11_000.0]) == "2-in-1"

    def test_4_in_1_on_day_cluster(self):
        times = [0.0, 9 * HOUR, 14 * HOUR, 20 * HOUR]
        assert _rules_fire(times) in ("4-in-1", "2-in-1", "2-of-4")

    def test_quiet_device_never_fires(self):
        # Steady errors days apart: no acceleration.
        times = [i * 3 * DAY for i in range(6)]
        assert _rules_fire(times) is None

    def test_decreasing_frames(self):
        # Frames 30 h, 17 h, 9.5 h: monotone and more than halved overall,
        # but no single step is a halving (no 2-in-1) and the span exceeds
        # a day (no 4-in-1) -> the 4-decreasing rule fires.
        times = [0.0, 30 * HOUR, 47 * HOUR, 56.5 * HOUR]
        assert _rules_fire(times) == "4-decreasing"

    def test_frame_rules_read_three_frames(self):
        # Frames 0.5 h, 30 h, 0.5 h, 30 h: two of the last *four* are
        # under an hour, but only the fourth-newest joins the newest
        # three's one, so the "2-of-4" rule as implemented stays quiet
        # (and no other rule fires).
        times = [0.0, 0.5 * HOUR, 30.5 * HOUR, 31 * HOUR, 61 * HOUR]
        assert _rules_fire(times) is None


def _device_history(events, category="ECC"):
    return AlertHistory(
        [make_alert(t, source=source, category=category) for t, source in events]
    )


class TestPredictor:
    def test_accelerating_device_flagged(self):
        times = [0.0, 50 * HOUR, 80 * HOUR, 90 * HOUR, 93 * HOUR]
        history = _device_history([(t, "dimm2") for t in times])
        warnings = DftPredictor("ECC").warnings(history, 0.0, 100 * HOUR)
        assert warnings
        assert all(w.t in times for w in warnings)

    def test_refractory_limits_advisories(self):
        history = _device_history([(k * 100.0, "n1") for k in range(50)])
        predictor = DftPredictor("ECC", refractory=1e9)
        assert len(predictor.warnings(history, 0.0, 1e4)) == 1

    def test_devices_tracked_independently(self):
        bad = [0.0, 50 * HOUR, 80 * HOUR, 90 * HOUR, 93 * HOUR]
        steady = [i * 5 * DAY + 0.5 * HOUR for i in range(6)]
        history = _device_history(
            [(t, "bad") for t in bad] + [(t, "good") for t in steady]
        )
        warnings = DftPredictor("ECC").warnings(history, 0.0, 30 * DAY)
        assert warnings
        assert all(w.t in bad for w in warnings)

    def test_empty(self):
        assert DftPredictor("ECC").warnings(AlertHistory([]), 0.0, 1e9) == []

    def test_warns_before_planted_failure(self):
        # A DIMM whose correctable errors accelerate into a failure.
        error_times = [0.0, 40 * HOUR, 65 * HOUR, 75 * HOUR, 79 * HOUR]
        alerts = [
            make_alert(t, source="dimm7", category="ECC")
            for t in error_times
        ]
        history = AlertHistory(alerts)
        predictor = DftPredictor("ECC")
        predictor.train(history, 0.0, 80 * HOUR)
        warnings = predictor.warnings(history, 0.0, 80 * HOUR)
        assert warnings
        assert warnings[0].t <= error_times[-1]

    def test_other_categories_ignored(self):
        alerts = [
            make_alert(float(t), source="n1", category="OTHER")
            for t in range(5)
        ]
        history = AlertHistory(alerts)
        predictor = DftPredictor("ECC")
        assert predictor.warnings(history, 0.0, 10.0) == []

    def test_pluggable_into_ensemble(self):
        from repro.prediction.ensemble import PredictorEnsemble
        from repro.prediction.dft import DftPredictor

        alerts = []
        # Repeating degradation pattern on one device per epoch.
        for epoch in range(12):
            base = epoch * 30 * DAY
            for offset in (0.0, 40 * HOUR, 65 * HOUR, 75 * HOUR, 79 * HOUR):
                alerts.append(
                    make_alert(base + offset, source=f"dimm{epoch}",
                               category="ECC")
                )
        history = AlertHistory(alerts)
        ensemble = PredictorEnsemble(
            factories={"dft": lambda target: DftPredictor(target)},
            min_f1=0.05,
            lead_max=12 * HOUR,
        )
        t0, t1 = history.first_time(), history.last_time() + 1
        cut1 = t0 + (t1 - t0) * 0.5
        cut2 = t0 + (t1 - t0) * 0.75
        ensemble.fit(history, (t0, cut1), (cut1, cut2))
        # DFT is the only candidate; whether it clears the bar depends on
        # the lead window, but fitting must not error and members are DFT.
        for member in ensemble.members.values():
            assert member.kind == "dft"
