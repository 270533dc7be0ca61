"""Unit tests for the dead-letter quarantine."""

import pytest

from repro.logmodel.record import LogRecord
from repro.resilience.deadletter import DeadLetterQueue


def _record(t=1.0, body="x"):
    return LogRecord(timestamp=t, source="n1", facility="kernel", body=body)


class TestQueue:
    def test_put_and_counters(self):
        dlq = DeadLetterQueue()
        dlq.put(_record(), "bad-parse")
        dlq.put(_record(), "bad-parse", detail="line 7")
        dlq.put(_record(), "out-of-order")
        assert dlq.quarantined == 3
        assert len(dlq) == 3
        assert dlq.by_reason == {"bad-parse": 2, "out-of-order": 1}
        assert [letter.reason for letter in dlq].count("bad-parse") == 2

    def test_capacity_bounds_retention_not_counts(self):
        dlq = DeadLetterQueue(capacity=5)
        for k in range(12):
            dlq.put(_record(t=float(k)), "overflow-test")
        assert len(dlq) == 5
        assert dlq.quarantined == 12
        assert dlq.evicted == 7
        retained = [letter.record.timestamp for letter in dlq]
        assert retained == [7.0, 8.0, 9.0, 10.0, 11.0]  # newest kept

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DeadLetterQueue(capacity=0)

    def test_summary_text(self):
        dlq = DeadLetterQueue()
        assert dlq.summary() == "0 quarantined"
        dlq.put(_record(), "b-reason")
        dlq.put(_record(), "a-reason")
        assert dlq.summary() == "2 quarantined (a-reason: 1, b-reason: 1)"


class TestSnapshot:
    def test_snapshot_is_isolated_from_later_puts(self):
        dlq = DeadLetterQueue()
        dlq.put(_record(1.0), "early")
        snap = dlq.snapshot()
        dlq.put(_record(2.0), "late")
        assert snap.quarantined == 1
        assert dict(snap.by_reason) == {"early": 1}

    def test_restore_rewinds_to_snapshot(self):
        dlq = DeadLetterQueue()
        dlq.put(_record(1.0), "early")
        snap = dlq.snapshot()
        dlq.put(_record(2.0), "late")
        dlq.restore(snap)
        assert dlq.quarantined == 1
        assert dlq.by_reason == {"early": 1}
        assert [letter.reason for letter in dlq] == ["early"]

    def test_restore_none_resets_empty(self):
        dlq = DeadLetterQueue()
        dlq.put(_record(), "x")
        dlq.restore(None)
        assert dlq.quarantined == 0
        assert len(dlq) == 0
        assert dlq.by_reason == {}

    def test_one_snapshot_supports_many_restores(self):
        dlq = DeadLetterQueue()
        dlq.put(_record(), "keep")
        snap = dlq.snapshot()
        for _ in range(3):
            dlq.put(_record(), "noise")
            dlq.restore(snap)
        assert dlq.quarantined == 1
        assert dlq.by_reason == {"keep": 1}


class TestEvictionAccounting:
    def test_evictions_counted_per_reason(self):
        dlq = DeadLetterQueue(capacity=3)
        for k in range(3):
            dlq.put(_record(t=float(k)), "first-wave")
        for k in range(2):
            dlq.put(_record(t=float(10 + k)), "second-wave")
        # The two oldest first-wave letters were pushed out, by reason.
        assert dlq.evicted == 2
        assert dlq.evicted_counts == {"first-wave": 2}
        dlq.put(_record(t=20.0), "third-wave")
        assert dlq.evicted_counts == {"first-wave": 3}

    def test_eviction_counts_survive_snapshot_round_trip(self):
        dlq = DeadLetterQueue(capacity=2)
        for k in range(5):
            dlq.put(_record(t=float(k)), "noise")
        snap = dlq.snapshot()
        assert dict(snap.evicted_counts) == {"noise": 3}
        fresh = DeadLetterQueue(capacity=2)
        fresh.restore(snap)
        assert fresh.evicted == 3
        assert fresh.evicted_counts == {"noise": 3}
        fresh.restore(None)
        assert fresh.evicted_counts == {}

    def test_restore_into_smaller_queue_counts_overflow(self):
        big = DeadLetterQueue(capacity=10)
        for k, reason in enumerate(["a", "b", "a", "c", "b"]):
            big.put(_record(t=float(k)), reason)
        small = DeadLetterQueue(capacity=3)
        small.restore(big.snapshot())
        assert [letter.record.timestamp for letter in small] == [2.0, 3.0, 4.0]
        assert small.quarantined == len(small) + small.evicted == 5
        assert small.evicted_counts == {"a": 1, "b": 1}
        assert small.by_reason == {"a": 2, "b": 2, "c": 1}

    def test_summary_reports_evictions(self):
        dlq = DeadLetterQueue(capacity=1)
        dlq.put(_record(), "a-reason")
        dlq.put(_record(), "b-reason")
        text = dlq.summary()
        assert "2 quarantined" in text
        assert "1 letters evicted (a-reason: 1)" in text

    def test_no_eviction_line_when_nothing_evicted(self):
        dlq = DeadLetterQueue()
        dlq.put(_record(), "x")
        assert "evicted" not in dlq.summary()
