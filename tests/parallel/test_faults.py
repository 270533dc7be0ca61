"""Fault-path tests: a worker process dies mid-batch.

The contract under test is the supervisor doctrine of the parallel
layer: a killed worker produced no output for its batch (outcomes exist
only when a future resolves), the parent replays each affected batch
through the serial fallback tagger **exactly once**, and the merged
output — alerts, order, dead-letter accounting — is indistinguishable
from a run where no worker ever died.
"""

import pytest

from repro import api as pipeline
from repro.core.tagging import RulesetHandle, Tagger
from repro.logmodel.record import LogRecord
from repro.parallel import (
    KILL_SENTINEL,
    ParallelConfig,
    ShardedTagger,
    chunked,
)
from repro.resilience.deadletter import DeadLetterQueue


def _stream_with_kills(n=400, kill_at=(123,)):
    """A liberty stream with real alerts, chaff, and kill sentinels."""
    ruleset = RulesetHandle("liberty").resolve()
    alert_cats = [cat for cat in ruleset if cat.example]
    records = []
    for i in range(n):
        if i in kill_at:
            # The sentinel body matches no expert rule, so on the serial
            # path (and the retry path) it is simply an untagged record.
            records.append(
                LogRecord(timestamp=float(i), source="n1", facility="",
                          body=KILL_SENTINEL, system="liberty")
            )
        elif i % 4 == 0:
            cat = alert_cats[i % len(alert_cats)]
            records.append(
                LogRecord(timestamp=float(i), source=f"n{i % 13}",
                          facility=cat.facility, body=cat.example,
                          system="liberty")
            )
        else:
            records.append(
                LogRecord(timestamp=float(i), source="n1",
                          facility="kernel", body="routine chatter",
                          system="liberty")
            )
    return records


def _serial_alerts(records):
    return list(Tagger(RulesetHandle("liberty").resolve())
                .tag_stream(records))


class _ReplaySpy:
    """Stands in for the parent's serial tagger and records every batch
    it is asked to tag."""

    def __init__(self):
        self.tagger = RulesetHandle("liberty").tagger()
        self.batches = []

    def tag_batch(self, records):
        self.batches.append(records)
        return self.tagger.tag_batch(records)


class TestWorkerCrashRecovery:
    def test_killed_worker_batch_is_retried_exactly_once(self, env_workers):
        records = _stream_with_kills(n=400, kill_at=(123,))
        config = ParallelConfig(workers=env_workers, batch_size=32,
                                enable_test_faults=True)
        with ShardedTagger("liberty", config) as sharded:
            yielded = list(sharded.tag_batches(chunked(records, 32)))
            stats = sharded.stats
        # The crash was observed and survived.
        assert stats.worker_crashes == 1
        # Exactly-once per batch: every submitted batch came back exactly
        # once and sizes conserve.
        assert len(yielded) == stats.batches == 13  # ceil(400/32)
        assert sum(outcome.size for _, outcome in yielded) == 400
        assert stats.batches_retried >= 1
        assert stats.batches_retried <= stats.batches

    def test_no_duplicated_or_lost_alerts(self, env_workers):
        records = _stream_with_kills(n=400, kill_at=(123,))
        config = ParallelConfig(workers=env_workers, batch_size=32,
                                enable_test_faults=True)
        with ShardedTagger("liberty", config) as sharded:
            parallel = list(sharded.tag_stream(records))
        assert parallel == _serial_alerts(records)

    def test_multiple_crashes_across_stream(self, env_workers):
        records = _stream_with_kills(n=600, kill_at=(50, 301, 555))
        config = ParallelConfig(workers=env_workers, batch_size=25,
                                enable_test_faults=True)
        with ShardedTagger("liberty", config) as sharded:
            parallel = list(sharded.tag_stream(records))
            stats = sharded.stats
        assert parallel == _serial_alerts(records)
        assert stats.worker_crashes == 3

    def test_pipeline_result_identical_under_crashes(self, env_workers):
        """Full run_stream: a crashing run's result — alerts, filter
        output, stats, dead letters — matches an undisturbed serial run
        of the same stream (dead-letter accounting exact: zero letters,
        because the retry absorbed the crash)."""
        records = _stream_with_kills(n=500, kill_at=(77, 402))
        serial_dlq = DeadLetterQueue()
        serial = pipeline.run_stream(records, "liberty",
                                     dead_letters=serial_dlq)
        parallel_dlq = DeadLetterQueue()
        config = ParallelConfig(workers=env_workers, batch_size=40,
                                enable_test_faults=True)
        parallel = pipeline.run_stream(records, "liberty",
                                       dead_letters=parallel_dlq,
                                       parallel=config)
        assert parallel.shard_stats is not None
        assert parallel.shard_stats.worker_crashes >= 1
        assert parallel.raw_alerts == serial.raw_alerts
        assert parallel.filtered_alerts == serial.filtered_alerts
        assert parallel.stats.messages == serial.stats.messages
        assert parallel.stats.raw_bytes == serial.stats.raw_bytes
        assert parallel.category_counts() == serial.category_counts()
        assert parallel_dlq.by_reason == serial_dlq.by_reason == {}
        assert parallel_dlq.quarantined == serial_dlq.quarantined == 0

    def test_sentinel_inert_without_fault_flag(self, env_workers):
        """The kill hook must be opt-in: the same stream on a production
        config treats the sentinel as an ordinary untagged record."""
        records = _stream_with_kills(n=120, kill_at=(60,))
        config = ParallelConfig(workers=env_workers, batch_size=16)
        with ShardedTagger("liberty", config) as sharded:
            parallel = list(sharded.tag_stream(records))
            stats = sharded.stats
        assert stats.worker_crashes == 0
        assert parallel == _serial_alerts(records)


class TestOrderedCrashPath:
    """One kill sentinel while many small batches are in flight: the
    broken pool fails every future it still owed, and each of those
    batches is tagged in the parent instead."""

    @pytest.fixture
    def crashed(self, env_workers, monkeypatch):
        records = _stream_with_kills(n=400, kill_at=(123,))
        batches = list(chunked(records, 8))
        config = ParallelConfig(workers=env_workers, batch_size=8,
                                enable_test_faults=True)
        spy = _ReplaySpy()
        with ShardedTagger("liberty", config) as sharded:
            monkeypatch.setattr(sharded, "_serial_tagger", spy)
            yielded = list(sharded.tag_batches(batches))
            yield sharded, batches, yielded, spy

    def test_failed_batches_replay_exactly_once(self, crashed):
        sharded, batches, _yielded, spy = crashed
        replayed = [id(batch) for batch in spy.batches]
        assert len(set(replayed)) == len(replayed)
        assert len(replayed) == sharded.stats.batches_retried >= 1
        assert id(batches[123 // 8]) in replayed
        assert sharded.stats.worker_crashes == 1

    def test_yields_in_order_equal_serial_outcomes(self, crashed):
        _sharded, batches, yielded, _spy = crashed
        serial = Tagger(RulesetHandle("liberty").resolve())
        assert [batch for batch, _ in yielded] == batches
        assert [outcome for _, outcome in yielded] == \
            [serial.tag_batch(batch) for batch in batches]

    def test_next_call_runs_on_a_fresh_pool(self, crashed):
        sharded, _batches, _yielded, _spy = crashed
        retried = sharded.stats.batches_retried
        clean = _stream_with_kills(n=200, kill_at=())
        again = list(sharded.tag_batches(chunked(clean, 8)))
        serial = Tagger(RulesetHandle("liberty").resolve())
        assert [outcome for _, outcome in again] == \
            [serial.tag_batch(batch) for batch, _ in again]
        assert sharded.stats.worker_crashes == 1
        assert sharded.stats.batches_retried == retried
