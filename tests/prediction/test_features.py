"""Unit tests for prediction feature extraction."""

from repro.prediction.features import AlertHistory

from ..conftest import make_alert


def _history():
    alerts = [
        make_alert(0.0, category="A"),
        make_alert(10.0, category="B"),
        make_alert(20.0, category="A"),
        make_alert(30.0, category="A"),
    ]
    return AlertHistory(alerts)


class TestAlertHistory:
    def test_sorts_input(self):
        history = AlertHistory(
            [make_alert(5.0), make_alert(1.0), make_alert(3.0)]
        )
        times = [a.timestamp for a in history.alerts]
        assert times == [1.0, 3.0, 5.0]

    def test_categories(self):
        assert _history().categories == ["A", "B"]

    def test_count_between_half_open(self):
        history = _history()
        assert history.count_between(0.0, 20.0) == 2   # [0, 20)
        assert history.count_between(0.0, 20.1) == 3
        assert history.count_between(100.0, 200.0) == 0

    def test_category_count_between(self):
        history = _history()
        assert history.category_count_between("A", 0.0, 31.0) == 3
        assert history.category_count_between("B", 0.0, 31.0) == 1
        assert history.category_count_between("MISSING", 0.0, 31.0) == 0

    def test_category_times(self):
        assert _history().category_times("A") == [0.0, 20.0, 30.0]

    def test_first_last(self):
        history = _history()
        assert history.first_time() == 0.0
        assert history.last_time() == 30.0
        empty = AlertHistory([])
        assert empty.first_time() == 0.0
        assert empty.last_time() == 0.0
