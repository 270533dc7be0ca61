"""Unit tests for the severity-based tagging baseline."""

from repro.core.severity import SeverityTaggerConfig


class TestConfigs:
    def test_bgl_fatal_failure(self):
        config = SeverityTaggerConfig.bgl_fatal_failure()
        assert config.alert_labels == frozenset({"FATAL", "FAILURE"})
