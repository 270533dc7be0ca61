"""Unit tests for streaming log I/O and volume statistics."""

import gzip
import zlib
from itertools import islice

import pytest

from repro import api
from repro.logio.reader import read_log
from repro.logio.stats import StatsCollector
from repro.logio.writer import renderer_for, write_log
from repro.logmodel.bgl import render_bgl_line
from repro.logmodel.dialects import parse_lines
from repro.logmodel.record import LogRecord
from repro.logmodel.redstorm import render_redstorm_line
from repro.logmodel.syslog import render_syslog_line
from repro.simulation.generator import generate_log

SCALE = 1e-5
SEED = 77


def _roundtrip(tmp_path, system, compress=False):
    gen = generate_log(system, scale=SCALE, seed=SEED, corruption=0.0)
    original = list(gen.records)
    suffix = ".log.gz" if compress else ".log"
    path = tmp_path / f"{system}{suffix}"
    written = write_log(original, path, system, compress=compress)
    year = int(gen.scenario.start_date.split("-")[0])
    recovered = list(read_log(path, system, year=year))
    return original, recovered, written, path


@pytest.mark.parametrize("system", ["bgl", "thunderbird", "redstorm",
                                    "spirit", "liberty"])
def test_write_read_round_trip(tmp_path, system):
    original, recovered, written, _ = _roundtrip(tmp_path, system)
    assert written == len(original) == len(recovered)
    assert not any(r.corrupted for r in recovered)
    for a, b in zip(original, recovered):
        assert a.timestamp == pytest.approx(b.timestamp, abs=1e-6)
        assert a.source == b.source
        assert a.full_text() == b.full_text()
        assert a.severity == b.severity


def test_gzip_round_trip(tmp_path):
    original, recovered, _, path = _roundtrip(tmp_path, "liberty",
                                              compress=True)
    assert len(recovered) == len(original)
    with gzip.open(path, "rt") as handle:
        assert handle.readline().strip()


@pytest.mark.parametrize("system", ["liberty", "bgl"])
@pytest.mark.parametrize("cut", [0.25, 0.5, 0.9])
def test_truncated_gzip_reads_its_recoverable_prefix(tmp_path, system, cut):
    """A ``.gz`` log cut mid-stream reads to the last byte gzip can
    recover, without raising: every record but the last equals the
    untruncated file's, and the last is a prefix of its line."""
    gen = generate_log(system, scale=SCALE, seed=SEED, corruption=0.0)
    whole = tmp_path / f"{system}.log.gz"
    write_log(gen.records, whole, system, compress=True)
    data = whole.read_bytes()
    cut_path = tmp_path / f"{system}.cut.log.gz"
    cut_path.write_bytes(data[: int(len(data) * cut)])
    full = list(read_log(whole, system))
    records = list(read_log(cut_path, system))
    assert 0 < len(records) < len(full)
    assert records[:-1] == full[: len(records) - 1]
    assert full[len(records) - 1].raw.startswith(records[-1].raw)


def test_renderer_for_dispatch():
    assert renderer_for("bgl") is render_bgl_line
    assert renderer_for("redstorm") is render_redstorm_line
    assert renderer_for("spirit") is render_syslog_line


class TestStatsCollector:
    @staticmethod
    def _stats(records, system="liberty"):
        collector = StatsCollector(system)
        collector.observe_batch(records)
        return collector.finish()

    def test_measure_stream(self):
        gen = generate_log("liberty", scale=SCALE, seed=SEED)
        records = list(gen.records)
        stats = self._stats(records)
        assert stats.messages == len(records)
        assert stats.raw_bytes > 0
        assert 0 < stats.compressed_bytes < stats.raw_bytes
        assert stats.days > 200  # Liberty's window is 315 days
        assert stats.rate_bytes_per_second > 0

    def test_a_garbled_first_line_leaves_table2s_span_alone(self):
        """A line with no stamp parses as a corrupted record at
        ``timestamp 0.0``; at the head of a log it once stretched
        Liberty's 315 days to 13,000 and cut its bytes/s with them."""
        gen = generate_log("liberty", scale=SCALE, seed=SEED, corruption=0.0)
        year = int(gen.scenario.start_date.split("-")[0])
        render = renderer_for("liberty")
        lines = [render(r) for r in gen.records]
        clean = api.run_stream(parse_lines(lines, "liberty", year), "liberty")
        garbled = api.run_stream(
            parse_lines(["garbled line with no stamp"] + lines, "liberty", year),
            "liberty",
        )
        assert garbled.stats.messages == clean.stats.messages + 1
        assert garbled.stats.days == clean.stats.days < 320
        assert (garbled.stats.first_timestamp, garbled.stats.last_timestamp) == (
            clean.stats.first_timestamp, clean.stats.last_timestamp,
        )

    @pytest.mark.parametrize("batch", [False, True], ids=["record", "batch"])
    def test_corrupted_records_never_move_the_span(self, batch):
        def record(timestamp, corrupted=False):
            return LogRecord(timestamp=timestamp, source="n1", facility="f",
                             body="x", corrupted=corrupted)

        records = [
            record(0.0, corrupted=True), record(100.0), record(50.0),
            record(9e9, corrupted=True), record(200.0),
            record(0.0, corrupted=True),
        ]
        collector = StatsCollector("liberty")
        if batch:
            collector.observe_batch(records[:3])
            collector.observe_batch(records[3:])
        else:
            for each in records:
                collector.observe_record(each)
        stats = collector.finish()
        assert stats.messages == 6
        assert (stats.first_timestamp, stats.last_timestamp) == (100.0, 200.0)

    def test_compression_matches_real_gzip(self, tmp_path):
        """The incremental zlib estimate must track an actual gzip file."""
        gen = generate_log("liberty", scale=SCALE, seed=SEED)
        records = list(gen.records)
        stats = self._stats(records)
        path = tmp_path / "lib.log.gz"
        write_log(records, path, "liberty", compress=True)
        actual = path.stat().st_size
        assert stats.compressed_bytes == pytest.approx(actual, rel=0.15)

    def test_streaming_observe(self):
        collector = StatsCollector("liberty")
        records = [
            LogRecord(timestamp=float(i), source="n1", facility="f", body="x")
            for i in range(10)
        ]
        seen = list(collector.observe(iter(records)))
        assert len(seen) == 10
        assert collector.stats.messages == 10
        assert collector.stats.first_timestamp == 0.0
        assert collector.stats.last_timestamp == 9.0

    #: Lines a renderer would not write back byte for byte: a ``[pid]``
    #: tag and a one-space day.
    PID_LINES = (
        "Dec 2 10:00:01 ln12 sshd[4242]: session opened for user root\n"
        "Dec 2 10:00:05 ln12 pbs_mom[977]: task_check, cannot tm_reply\n"
        "Dec 2 10:01:17 ladmin1 ntpd[31]: synchronized to 10.0.0.1\n"
    )

    @staticmethod
    def _gz_log(tmp_path, system):
        """A generated log, written gzipped; returns path, year, bytes."""
        gen = generate_log(system, scale=SCALE, seed=SEED)
        path = tmp_path / f"{system}.log.gz"
        write_log(gen.records, path, system, compress=True)
        year = int(gen.scenario.start_date.split("-")[0])
        return path, year, gzip.decompress(path.read_bytes())

    @pytest.mark.parametrize("system", ["pid-lines", "bgl", "thunderbird",
                                        "redstorm", "spirit", "liberty"])
    def test_sizes_are_the_log_as_read(self, tmp_path, system):
        """Table 2's size columns measure a UTF-8, newline-terminated log
        with no blank lines exactly: raw bytes are the gunzipped file and
        compressed bytes are that file through zlib level 6 — on the
        per-record path and the pipeline's batch path alike."""
        if system == "pid-lines":
            data = self.PID_LINES.encode("utf-8")
            path, year, system = tmp_path / "pid.log.gz", 2004, "liberty"
            path.write_bytes(gzip.compress(data))
        else:
            path, year, data = self._gz_log(tmp_path, system)
        collector = StatsCollector(system)
        for record in read_log(path, system, year=year):
            collector.observe_record(record)
        per_record = collector.finish()
        batched = api.run_stream(read_log(path, system, year=year), system)
        for stats in (per_record, batched.stats):
            assert stats.raw_bytes == len(data)
            assert stats.compressed_bytes == len(zlib.compress(data, 6))

    def test_records_never_read_are_rendered(self):
        """A record without its line (generated, anonymized, re-stamped)
        is measured as rendered."""
        records = [
            LogRecord(timestamp=float(i), source="n1", facility="f", body="x")
            for i in range(3)
        ]
        data = "".join(
            render_syslog_line(r) + "\n" for r in records
        ).encode("utf-8")
        stats = self._stats(records)
        assert stats.raw_bytes == len(data)
        assert stats.compressed_bytes == len(zlib.compress(data, 6))

    def test_empty_stream(self):
        stats = self._stats([])
        assert stats.messages == 0
        assert stats.span_seconds == 0.0
        assert stats.rate_bytes_per_second == 0.0
        assert stats.compression_ratio == 1.0


class TestReaderHandleLifetime:
    """Regression: the old generator-based reader leaked its file handle
    when a consumer stopped early — closure waited on the GC."""

    def _write_log(self, tmp_path, system="liberty"):
        gen = generate_log(system, scale=SCALE, seed=SEED, corruption=0.0)
        path = tmp_path / f"{system}.log"
        write_log(gen.records, path, system)
        return path

    def test_handle_closes_on_exhaustion(self, tmp_path):
        path = self._write_log(tmp_path)
        reader = read_log(path, "liberty")
        for _ in reader:
            pass
        assert reader.closed

    def test_early_break_then_close_releases_handle(self, tmp_path):
        path = self._write_log(tmp_path)
        reader = read_log(path, "liberty")
        for k, _ in enumerate(reader):
            if k == 3:
                break
        assert not reader.closed  # break alone does not exhaust
        reader.close()
        assert reader.closed
        with pytest.raises(StopIteration):
            next(reader)

    def test_context_manager_closes_on_early_exit(self, tmp_path):
        path = self._write_log(tmp_path)
        with read_log(path, "liberty") as reader:
            next(reader)
        assert reader.closed

    def test_close_is_idempotent(self, tmp_path):
        path = self._write_log(tmp_path)
        reader = read_log(path, "liberty")
        reader.close()
        reader.close()
        assert reader.closed

    #: The driver's view of a reader: every system's stream parser.  (The
    #: ids keep the ``-0`` they had beside a since-removed buffered shape,
    #: so the suite's test names do not move.)
    SHAPES = [
        pytest.param(system, id=f"{system}-0")
        for system in ("liberty", "bgl", "redstorm")
    ]

    @pytest.mark.parametrize("system", SHAPES)
    def test_islice_chunks_drain_the_stream_and_close(self, tmp_path, system):
        path = self._write_log(tmp_path, system)
        whole = list(read_log(path, system))
        assert len(whole) > 100
        reader = read_log(path, system)
        chunks = []
        while True:
            chunk = list(islice(reader, 37))
            if not chunk:
                break
            chunks.extend(chunk)
        assert chunks == whole
        assert reader.closed

    @pytest.mark.parametrize("system", SHAPES)
    def test_next_and_for_share_one_stream(self, tmp_path, system):
        path = self._write_log(tmp_path, system)
        whole = list(read_log(path, system))
        reader = read_log(path, system)
        seen = [next(reader)]
        for record in reader:
            seen.append(record)
            if len(seen) % 3 == 0:
                try:
                    seen.append(next(reader))
                except StopIteration:
                    break
        assert seen == whole
        assert reader.closed

    @pytest.mark.parametrize("system", SHAPES)
    def test_close_mid_iteration_ends_the_loop(self, tmp_path, system):
        path = self._write_log(tmp_path, system)
        reader = read_log(path, system)
        seen = 0
        for _ in reader:
            seen += 1
            if seen == 5:
                reader.close()
        assert seen == 5
        assert reader.closed
        with pytest.raises(StopIteration):
            next(reader)
        reader.close()

    def test_a_temporary_reader_is_iterated_to_the_end(self, tmp_path):
        path = self._write_log(tmp_path)
        count = 0
        for _ in read_log(path, "liberty"):
            count += 1
        assert count == len(list(read_log(path, "liberty")))
