"""The stats collector's block feed: deflate in 64 KiB blocks, one in
flight on a helper thread, settled by the next block, ``snapshot()`` and
``finish()`` — with the counts of a collector that compresses each
record as it comes."""

import pickle
import sys
import threading
import time
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logio import stats as stats_module
from repro.logio.stats import (
    BLOCK_BYTES,
    GZIP_DEFAULT_LEVEL,
    StatsCollector,
)
from repro.logio.writer import renderer_for
from repro.simulation.generator import generate_log

RECORDS = list(generate_log("liberty", scale=1e-5, seed=77).records)
_render = renderer_for("liberty")
LINES = [(_render(r) + "\n").encode("utf-8") for r in RECORDS]
assert sum(map(len, LINES)) > 4 * BLOCK_BYTES

#: Calls on both sides of a block: a few records, or a batch of ~30-130 KiB.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.integers(1, 40)),
        st.tuples(st.just("batch"), st.integers(1, 1500)),
        st.just(("snapshot", 0)),
        st.just(("pickle", 0)),
        st.just(("coarse", 0)),
    ),
    max_size=25,
)


class _Reference:
    """The per-record collector the block feed must equal: one zlib
    stream fed each record's bytes as it is observed while not coarse."""

    def __init__(self):
        self.compressor = zlib.compressobj(GZIP_DEFAULT_LEVEL)
        self.compressed = 0
        self.fed = bytearray()
        self.fed_records = []
        self.raw = 0

    def observe(self, index: int, coarse: bool) -> None:
        self.raw += len(LINES[index])
        if not coarse:
            self.compressed += len(self.compressor.compress(LINES[index]))
            self.fed += LINES[index]
            self.fed_records.append(RECORDS[index])


def _started_threads(monkeypatch) -> list:
    """Record every thread started from here on."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


@pytest.mark.parametrize("helper", [True, False], ids=["helper", "inline"])
@settings(max_examples=30, deadline=None)
@given(script=ops)
def test_block_feed_equals_the_per_record_reference(helper, script):
    # A short switch interval lets the caller and the helper interleave
    # as often as the interpreter allows.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_script(helper, script)
    finally:
        sys.setswitchinterval(interval)


def _run_script(helper, script):
    with mock.patch.object(stats_module, "_two_cpus", lambda: helper):
        collector = StatsCollector("liberty")
        reference = _Reference()
        at = 0
        for op, n in script + [("batch", len(RECORDS))]:
            if op == "record":
                for index in range(at, min(at + n, len(RECORDS))):
                    collector.observe_record(RECORDS[index])
                    reference.observe(index, collector.coarse)
                at = min(at + n, len(RECORDS))
            elif op == "batch":
                batch = RECORDS[at:at + n]
                collector.observe_batch(batch)
                for index in range(at, at + len(batch)):
                    reference.observe(index, collector.coarse)
                at += len(batch)
            elif op == "coarse":
                collector.coarse = not collector.coarse
            else:
                snap = collector.snapshot()
                assert snap.fed_bytes == len(reference.fed)
                assert snap.stats.compressed_bytes == reference.compressed
                assert snap.stats.raw_bytes == reference.raw
                tail = len(snap.compressor.copy().flush())
                assert snap.stats.compressed_bytes + tail == len(
                    zlib.compress(bytes(reference.fed), GZIP_DEFAULT_LEVEL)
                )
                if op == "pickle":
                    collector = StatsCollector.from_snapshot(
                        pickle.loads(pickle.dumps(snap))
                    )
                    for record in reference.fed_records:
                        collector.replay_record(record)
                    assert collector.pending_replay_bytes == 0
                    assert not collector.replay_mismatch
        assert collector.snapshot().fed_bytes == len(reference.fed)
        stats = collector.finish()
        assert stats.messages == len(RECORDS)
        assert stats.raw_bytes == sum(map(len, LINES))
        assert stats.compressed_bytes == len(
            zlib.compress(bytes(reference.fed), GZIP_DEFAULT_LEVEL)
        )


@pytest.mark.parametrize("settle", ["finish", "snapshot"])
def test_no_helper_outlives_a_settle_point(monkeypatch, settle):
    monkeypatch.setattr(stats_module, "_two_cpus", lambda: True)
    deflate = stats_module._deflate

    def slow_exit(*args):
        # A helper that lingers after its result is in: only a join
        # waits for it.
        deflate(*args)
        time.sleep(0.05)

    monkeypatch.setattr(stats_module, "_deflate", slow_exit)
    started = _started_threads(monkeypatch)
    collector = StatsCollector("liberty")
    collector.observe_batch(RECORDS[:2000])
    collector.observe_record(RECORDS[2000])
    assert started, "a full block should have gone to the helper"
    getattr(collector, settle)()
    assert not any(thread.is_alive() for thread in started)


class _Exploding:
    def compress(self, data):
        raise RuntimeError("deflate failed")


@pytest.mark.parametrize("settle", ["finish", "snapshot", "observe_batch"])
def test_a_helper_exception_is_raised_at_the_next_settle(monkeypatch, settle):
    monkeypatch.setattr(stats_module, "_two_cpus", lambda: True)
    started = _started_threads(monkeypatch)
    collector = StatsCollector("liberty")
    collector._compressor = _Exploding()
    collector.observe_batch(RECORDS[:1500])  # one full block, in flight
    assert len(started) == 1
    with pytest.raises(RuntimeError, match="deflate failed"):
        if settle == "observe_batch":
            collector.observe_batch(RECORDS[1500:3000])
        else:
            getattr(collector, settle)()


def _whole_stream(collector) -> None:
    collector.observe_batch(RECORDS[:1500])
    for record in RECORDS[1500:2500]:
        collector.observe_record(record)
    collector.snapshot()
    collector.observe_batch(RECORDS[2500:])


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(stats_module.os, "sched_getaffinity", lambda pid: {0})
    started = _started_threads(monkeypatch)
    collector = StatsCollector("liberty")
    _whole_stream(collector)
    stats = collector.finish()
    assert started == []
    assert stats.compressed_bytes == len(
        zlib.compress(b"".join(LINES), GZIP_DEFAULT_LEVEL)
    )


def test_without_an_affinity_call_the_cpu_count_decides(monkeypatch):
    monkeypatch.delattr(stats_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(stats_module.os, "cpu_count", lambda: 1)
    started = _started_threads(monkeypatch)
    _whole_stream(StatsCollector("liberty"))
    assert started == []
    monkeypatch.setattr(stats_module.os, "cpu_count", lambda: 2)
    _whole_stream(StatsCollector("liberty"))
    assert started
