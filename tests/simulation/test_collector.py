"""Collector and merge_streams under adversarial streams."""

import numpy as np
import pytest

from repro.logmodel.record import LogRecord
from repro.resilience.deadletter import DeadLetterQueue
from repro.resilience.faults import DuplicateInjector, ReorderInjector
from repro.simulation.collector import Collector, merge_streams
from repro.simulation.corruptor import Corruptor


def _stream(times, source="n1"):
    return [
        LogRecord(timestamp=float(t), source=source, facility="kernel",
                  body=f"msg {t}")
        for t in times
    ]


class TestMerge:
    def test_merges_ordered_streams_in_time_order(self):
        a = _stream([0, 2, 4], source="a")
        b = _stream([1, 3, 5], source="b")
        merged = list(merge_streams(a, b))
        assert [r.timestamp for r in merged] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_preserves_every_record_including_duplicates(self):
        a = _stream([1, 1, 2], source="a")
        b = _stream([1, 2], source="b")
        merged = list(merge_streams(a, b))
        assert len(merged) == 5
        assert sorted(r.timestamp for r in merged) == [1.0, 1.0, 1.0, 2.0, 2.0]

    def test_disordered_input_yields_disordered_merge(self):
        # heapq.merge assumes sorted inputs; adversarial input leaks
        # through, which is exactly what Collector must then absorb.
        bad = _stream([5, 1, 3], source="bad")
        merged = [r.timestamp for r in merge_streams(bad, _stream([2]))]
        assert merged != sorted(merged)


class TestCollectorAdversarial:
    def test_duplicates_are_stored_not_refused(self):
        """Syslog duplicate delivery is normal: the collector stores
        duplicates (the filter downstream is what suppresses them)."""
        inj = DuplicateInjector(np.random.default_rng(0), rate=1.0)
        collector = Collector("sadmin2", dead_letters=DeadLetterQueue())
        out = list(collector.collect(inj.apply(_stream(range(10)))))
        assert len(out) == 20
        assert collector.stored == 20
        assert collector.quarantined == 0

    def test_out_of_order_within_tolerance_stored(self):
        collector = Collector("ladmin2", dead_letters=DeadLetterQueue(),
                              reorder_tolerance=1.0)
        out = list(collector.collect(_stream([0.0, 2.0, 1.5, 3.0])))
        assert len(out) == 4
        assert collector.disordered == 1
        assert collector.quarantined == 0

    def test_out_of_order_beyond_tolerance_quarantined(self):
        dlq = DeadLetterQueue()
        collector = Collector("ladmin2", dead_letters=dlq,
                              reorder_tolerance=1.0)
        out = list(collector.collect(_stream([0.0, 10.0, 2.0, 11.0])))
        assert [r.timestamp for r in out] == [0.0, 10.0, 11.0]
        assert collector.quarantined == 1
        assert dlq.by_reason == {"out-of-order": 1}

    def test_reordered_stream_from_injector(self):
        inj = ReorderInjector(np.random.default_rng(7), rate=0.2, window=6)
        dlq = DeadLetterQueue()
        collector = Collector("tbird-admin1", dead_letters=dlq,
                              reorder_tolerance=2.0)
        stored = list(collector.collect(inj.apply(_stream(range(500)))))
        assert collector.disordered > 0
        assert collector.stored == len(stored)
        assert collector.stored + collector.quarantined == 500
        # Everything stored respects the tolerance contract.
        high = float("-inf")
        for record in stored:
            assert record.timestamp >= high - 2.0
            high = max(high, record.timestamp)

    def test_invalid_timestamp_quarantined(self):
        dlq = DeadLetterQueue()
        collector = Collector("smw", dead_letters=dlq)
        records = _stream([1.0, 2.0]) + [
            LogRecord(timestamp=float("nan"), source="n9",
                      facility="kernel", body="broken clock"),
        ]
        out = list(collector.collect(records))
        assert len(out) == 2
        assert dlq.by_reason == {"invalid-record": 1}

    def test_without_dlq_historical_behavior_stores_everything(self):
        collector = Collector("smw")
        out = list(collector.collect(_stream([0.0, 50.0, 1.0])))
        assert len(out) == 3
        assert collector.disordered == 1
        assert collector.quarantined == 0

    def test_corruptor_interaction_counts_damage(self):
        corruptor = Corruptor(np.random.default_rng(3), rate=0.2)
        dlq = DeadLetterQueue()
        collector = Collector("tbird-admin1", corruptor=corruptor,
                              dead_letters=dlq)
        out = list(collector.collect(_stream(range(1000))))
        assert collector.corrupted > 0
        assert collector.corrupted == sum(1 for r in out if r.corrupted)
        # Corruption damages bodies/sources, not timestamps: nothing
        # becomes unstorable, so damaged lines land in the merged log
        # (the paper's analysts see them there, not in a quarantine).
        assert collector.quarantined == 0
        assert collector.stored == 1000

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            Collector("x", reorder_tolerance=-1.0)

