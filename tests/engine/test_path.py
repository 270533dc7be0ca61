"""Unit tests for :class:`repro.engine.path.AlertPath` — the one object
holding the per-record semantics every driver shares."""

from __future__ import annotations

import pytest

from repro.core.tagging import BatchOutcome
from repro.engine.drivers import SerialDriver
from repro.engine.path import AlertPath
from repro.logmodel.record import LogRecord
from repro.parallel.sharded import TaggerErrorReplay
from repro.resilience.deadletter import (
    DeadLetterQueue,
    REASON_INVALID_RECORD,
    REASON_OUT_OF_ORDER,
    REASON_TAGGER_ERROR,
)

from ..conftest import make_alert


def record(t=1.0, body="ok", source="n1"):
    return LogRecord(timestamp=t, source=source, facility="kernel",
                     body=body, system="liberty")


def invalid_record():
    return LogRecord(timestamp=float("nan"), source="n1",
                     facility="kernel", body="bad clock", system="liberty")


class ExplodingTagger:
    def tag(self, rec):
        raise RuntimeError("rules engine crashed")


class TestAdmission:
    def test_valid_has_no_side_effects(self):
        path = AlertPath("liberty", dead_letters=DeadLetterQueue())
        assert not AlertPath.valid(invalid_record())
        assert AlertPath.valid(record())
        assert path.consumed == 0
        assert path.dead_letters.quarantined == 0

    def test_invalid_record_quarantined(self):
        dlq = DeadLetterQueue()
        path = AlertPath("liberty", dead_letters=dlq)
        assert path.admit(record()) is True
        assert path.admit(invalid_record()) is False
        assert path.consumed == 2
        assert dlq.by_reason.get(REASON_INVALID_RECORD) == 1

    def test_strict_mode_admits_everything(self):
        path = AlertPath("liberty")
        assert path.admit(invalid_record()) is True
        assert path.consumed == 1


class TestTagAndOffer:
    def test_tagger_error_quarantines_and_skips_severity(self):
        dlq = DeadLetterQueue()
        path = AlertPath("liberty", dead_letters=dlq,
                         tagger=ExplodingTagger())
        assert path.tag(record()) is None
        assert dlq.by_reason.get(REASON_TAGGER_ERROR) == 1
        assert not dict(path.severity_tab.messages)

    def test_tagger_error_strict_raises(self):
        path = AlertPath("liberty", tagger=ExplodingTagger())
        with pytest.raises(RuntimeError):
            path.tag(record())

    def test_worker_error_strict_raises_replay_at_the_record(self):
        """A worker-reported error raises exactly where the per-record
        loop would: the clean prefix is processed, the suffix is not."""
        path = AlertPath("liberty")
        outcome = BatchOutcome(
            size=3, errors=((1, "RuntimeError('boom')"),),
        )
        with pytest.raises(TaggerErrorReplay, match="boom"):
            path.process_batch(
                [record(t=1.0), record(t=2.0), record(t=3.0)], outcome
            )
        assert path.consumed == 2
        assert sum(path.severity_tab.messages.values()) == 1

    def test_worker_error_quarantines(self):
        dlq = DeadLetterQueue()
        path = AlertPath("liberty", dead_letters=dlq)
        outcome = BatchOutcome(
            size=2, errors=((0, "RuntimeError('boom')"),),
        )
        assert path.process_batch([record(t=1.0), record(t=2.0)], outcome) == []
        assert dlq.by_reason.get(REASON_TAGGER_ERROR) == 1
        assert path.consumed == 2
        # The poison record skips the severity tab, as in tag().
        assert sum(path.severity_tab.messages.values()) == 1

    def test_out_of_order_alert_is_quarantined(self):
        dlq = DeadLetterQueue()
        path = AlertPath("liberty", dead_letters=dlq)
        path.offer(make_alert(100.0, system="liberty"))
        path.offer(make_alert(50.0, system="liberty"))  # way backwards
        assert dlq.by_reason.get(REASON_OUT_OF_ORDER) == 1
        assert len(path.sink.raw_alerts) == 1

    def test_offer_feeds_sink_and_report(self):
        path = AlertPath("liberty")
        path.offer(make_alert(10.0, system="liberty"))
        path.offer(make_alert(10.5, category="CAT", system="liberty"))
        assert len(path.sink.raw_alerts) == 2
        assert path.report.raw_total == 2


class TestSnapshotResume:
    def test_mid_stream_snapshot_round_trips(self):
        records = [record(t=float(i), body=f"msg {i}") for i in range(40)]

        whole = AlertPath("liberty")
        SerialDriver().run(iter(records), whole)

        first = AlertPath("liberty")
        SerialDriver().run(iter(records[:25]), first)
        checkpoint = first.snapshot()
        assert checkpoint.records_consumed == 25

        second = AlertPath("liberty", resume_from=checkpoint)
        assert second.consumed == 25
        SerialDriver().run(iter(records[25:]), second)

        resumed_stats = second.stats_collector.finish()
        whole_stats = whole.stats_collector.finish()
        assert resumed_stats.messages == whole_stats.messages
        assert resumed_stats.raw_bytes == whole_stats.raw_bytes
        assert resumed_stats.compressed_bytes == whole_stats.compressed_bytes
        assert dict(second.severity_tab.messages) == \
            dict(whole.severity_tab.messages)
        assert second.consumed == whole.consumed

    def test_resume_rejects_wrong_system(self):
        path = AlertPath("liberty")
        checkpoint = path.snapshot()
        with pytest.raises(ValueError, match="liberty"):
            AlertPath("spirit", resume_from=checkpoint)

    def test_resume_rejects_wrong_threshold(self):
        path = AlertPath("liberty", threshold=5.0)
        checkpoint = path.snapshot()
        with pytest.raises(ValueError, match="threshold"):
            AlertPath("liberty", threshold=10.0, resume_from=checkpoint)

    def test_snapshot_carries_shed_state(self):
        path = AlertPath("liberty")
        checkpoint = path.snapshot(shed_state={"CAT": 12.5})
        assert checkpoint.shed_state == {"CAT": 12.5}
        resumed = AlertPath("liberty", resume_from=checkpoint)
        assert resumed.resumed_shed_state == {"CAT": 12.5}
