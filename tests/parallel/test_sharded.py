"""Unit tests for the sharded tagging layer: merge, chunking, pool."""

import pytest

from repro.core.tagging import RulesetHandle, Tagger
from repro.logmodel.record import LogRecord
from repro.parallel import (
    MergeOrderError,
    OrderedMerge,
    ParallelConfig,
    ShardedTagger,
    TaggerErrorReplay,
    chunked,
    default_mp_context,
)
from repro.resilience.deadletter import REASON_TAGGER_ERROR, DeadLetterQueue


def _record(body, t=1.0, facility="kernel"):
    return LogRecord(timestamp=t, source="n1", facility=facility,
                     body=body, system="liberty")


def _liberty_records(n=500):
    """A deterministic mixed stream: chaff plus real liberty alerts."""
    ruleset = RulesetHandle("liberty").resolve()
    bodies = ["all quiet on node", "login session opened"]
    bodies += [cat.example for cat in ruleset if cat.example]
    records = []
    for i in range(n):
        cat = ruleset.categories[i % len(ruleset.categories)]
        if i % 3 == 0 and cat.example:
            records.append(
                LogRecord(timestamp=float(i), source=f"n{i % 17}",
                          facility=cat.facility, body=cat.example,
                          system="liberty")
            )
        else:
            records.append(
                _record(bodies[i % len(bodies)], t=float(i))
            )
    return records


class TestOrderedMerge:
    def test_releases_in_index_order(self):
        merge = OrderedMerge(window=8)
        merge.add(2, "c")
        merge.add(0, "a")
        assert list(merge.drain()) == ["a"]
        merge.add(1, "b")
        assert list(merge.drain()) == ["b", "c"]
        merge.assert_empty()

    def test_duplicate_index_raises(self):
        merge = OrderedMerge(window=4)
        merge.add(0, "a")
        with pytest.raises(MergeOrderError):
            merge.add(0, "again")

    def test_released_index_cannot_return(self):
        merge = OrderedMerge(window=4)
        merge.add(0, "a")
        assert list(merge.drain()) == ["a"]
        with pytest.raises(MergeOrderError):
            merge.add(0, "zombie")

    def test_window_overflow_raises(self):
        merge = OrderedMerge(window=2)
        merge.add(1, "b")
        merge.add(3, "d")
        with pytest.raises(MergeOrderError):
            merge.add(5, "f")

    def test_assert_empty_reports_gap(self):
        merge = OrderedMerge(window=4)
        merge.add(1, "b")
        with pytest.raises(MergeOrderError, match="index 0"):
            merge.assert_empty()

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            OrderedMerge(window=0)


class TestChunked:
    def test_exact_and_ragged_batches(self):
        records = [_record("x", t=float(i)) for i in range(7)]
        batches = list(chunked(records, 3))
        assert [len(b) for b in batches] == [3, 3, 1]
        assert [r for b in batches for r in b] == records

    def test_empty_stream(self):
        assert list(chunked([], 4)) == []

    def test_bad_size(self):
        with pytest.raises(ValueError):
            list(chunked([_record("x")], 0))


class TestParallelConfig:
    def test_defaults_resolve(self):
        config = ParallelConfig()
        assert config.resolved_workers() >= 2
        assert config.resolved_inflight() == 2 * config.resolved_workers()
        assert default_mp_context() in {"fork", "spawn", "forkserver"}

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=-1)
        with pytest.raises(ValueError):
            ParallelConfig(batch_size=0)


class TestShardedTagger:
    def test_unknown_system_fails_fast(self):
        with pytest.raises(KeyError):
            ShardedTagger("crayola")

    def test_matches_serial_tagger(self, liberty_sharded):
        records = _liberty_records(400)
        serial = list(Tagger(RulesetHandle("liberty").resolve())
                      .tag_stream(records))
        parallel = list(liberty_sharded.tag_stream(records))
        assert parallel == serial
        assert [a.category for a in parallel] == [a.category for a in serial]

    def test_pool_survives_multiple_streams(self, liberty_sharded):
        records = _liberty_records(150)
        first = list(liberty_sharded.tag_stream(records))
        second = list(liberty_sharded.tag_stream(records))
        assert first == second

    def test_batches_reassembled_in_submission_order(self, liberty_sharded):
        records = _liberty_records(300)
        batches = list(chunked(records, 64))
        seen = [
            batch for batch, _ in liberty_sharded.tag_batches(iter(batches))
        ]
        assert seen == batches

    def test_conservation(self, liberty_sharded):
        """Every record is tagged exactly once: batch sizes conserve."""
        records = _liberty_records(333)
        total = sum(
            outcome.size
            for _, outcome in liberty_sharded.tag_batches(chunked(records, 50))
        )
        assert total == len(records)

    def test_worker_error_goes_to_dead_letters(self, env_workers):
        records = _liberty_records(60)
        # A non-string body with no facility prefix crashes the regex
        # engine inside the worker process.
        records[31] = _record(12345, t=31.0, facility="")
        dlq = DeadLetterQueue()
        config = ParallelConfig(workers=env_workers, batch_size=16)
        with ShardedTagger("liberty", config) as sharded:
            alerts = list(sharded.tag_stream(records, dead_letters=dlq))
        assert dlq.by_reason == {REASON_TAGGER_ERROR: 1}
        assert dlq.letters_for(REASON_TAGGER_ERROR)[0].record is not None
        serial_ok = [r for i, r in enumerate(records) if i != 31]
        serial = list(Tagger(RulesetHandle("liberty").resolve())
                      .tag_stream(serial_ok))
        assert alerts == serial

    def test_worker_error_strict_without_queue(self, env_workers):
        records = _liberty_records(40)
        records[7] = _record(12345, t=7.0, facility="")
        config = ParallelConfig(workers=env_workers, batch_size=8)
        with ShardedTagger("liberty", config) as sharded:
            with pytest.raises(TaggerErrorReplay, match="TypeError"):
                list(sharded.tag_stream(records))

    def test_closed_tagger_refuses_work(self):
        sharded = ShardedTagger("liberty", ParallelConfig(workers=2))
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(sharded.tag_stream(_liberty_records(10)))

    def test_stats_accounting(self, env_workers):
        records = _liberty_records(200)
        config = ParallelConfig(workers=env_workers, batch_size=32)
        with ShardedTagger("liberty", config) as sharded:
            alerts = list(sharded.tag_stream(records))
            stats = sharded.stats
        assert stats.records == 200
        assert stats.batches == 7  # ceil(200 / 32)
        assert stats.alerts == len(alerts)
        assert stats.worker_crashes == 0
        assert stats.batches_retried == 0
        assert "workers" in stats.summary_line()
