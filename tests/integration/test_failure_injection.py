"""Failure-injection tests: the pipeline must survive hostile input.

Section 3.2.1 is a catalog of what real logs do to analysis code:
corruption, loss, inconsistent structure.  These tests feed the full
pipeline deliberately damaged streams and assert it degrades gracefully —
no exceptions, flagged records, sane counts.
"""

import numpy as np

from repro import api as pipeline
from repro.core.filtering import log_filter, sorted_by_time
from repro.logmodel.record import LogRecord
from repro.simulation.generator import generate_log
from repro.simulation.transport import UdpSyslogChannel

from ..conftest import make_alert

SEED = 99


class TestHeavyCorruption:
    def test_pipeline_survives_50_percent_corruption(self):
        gen = generate_log("liberty", scale=2e-5, seed=SEED, corruption=0.5)
        result = pipeline.run_stream(gen.records, "liberty")
        assert result.corrupted_messages > result.message_count * 0.4
        # Tagging still works on the surviving clean lines (and on
        # corrupted lines whose signature survived).
        assert result.raw_alert_count > 0

    def test_pipeline_survives_total_corruption(self):
        gen = generate_log("liberty", scale=1e-5, seed=SEED, corruption=1.0)
        result = pipeline.run_stream(gen.records, "liberty")
        assert result.corrupted_messages == result.message_count
        assert result.message_count > 0


class TestUdpLoss:
    def test_pipeline_after_lossy_channel(self):
        gen = generate_log("liberty", scale=2e-5, seed=SEED, corruption=0.0)
        channel = UdpSyslogChannel(
            np.random.default_rng(SEED), base_loss=0.1,
        )
        result = pipeline.run_stream(
            channel.transmit(gen.records), "liberty"
        )
        assert channel.dropped > 0
        assert result.message_count == channel.sent - channel.dropped
        assert result.raw_alert_count > 0

    def test_loss_reduces_but_does_not_distort_filtering(self):
        """Losing 10% of a redundant burst still leaves one filtered
        alert per incident: the filter's chain logic is loss-tolerant as
        long as surviving gaps stay under T."""
        alerts = [make_alert(k * 0.5) for k in range(100)]  # one chain
        rng = np.random.default_rng(SEED)
        surviving = [a for a in alerts if rng.random() > 0.1]
        assert len(list(log_filter(surviving))) == 1


class TestHostileStreams:
    def test_empty_log(self):
        result = pipeline.run_stream(iter([]), "liberty")
        assert result.message_count == 0
        assert result.filtered_alert_count == 0
        assert "messages:          0" in result.summary()

    def test_single_record_log(self):
        record = LogRecord(
            timestamp=1.0, source="n1", facility="pbs_mom",
            body="task_check, cannot tm_reply to 1.admin task 1",
            system="liberty",
        )
        result = pipeline.run_stream(iter([record]), "liberty")
        assert result.raw_alert_count == 1
        assert result.filtered_alert_count == 1

    def test_binary_garbage_lines(self, tmp_path):
        """A log file full of binary junk parses tolerantly end to end."""
        from repro.logio.reader import read_log

        path = tmp_path / "garbage.log"
        path.write_bytes(bytes(range(1, 256)) + b"\n" + b"\x00\x01garbage\n")
        result = pipeline.run_stream(
            read_log(path, "liberty", year=2005), "liberty"
        )
        assert result.message_count >= 1
        assert result.corrupted_messages == result.message_count

    def test_duplicate_timestamps(self):
        alerts = [make_alert(5.0) for _ in range(50)]
        assert len(list(log_filter(alerts))) == 1

    def test_filter_rejects_nothing_but_detects_disorder_via_sort(self):
        """Out-of-order input is the caller's bug; sorted_by_time is the
        documented remedy and must fully restore correctness."""
        rng = np.random.default_rng(SEED)
        times = rng.uniform(0, 1e4, 200)
        shuffled = [make_alert(float(t)) for t in times]
        kept = list(log_filter(sorted_by_time(shuffled)))
        resorted = sorted(times)
        reference = list(log_filter([make_alert(t) for t in resorted]))
        assert [a.timestamp for a in kept] == [a.timestamp for a in reference]


class TestCorruptedAlertsStillCountable:
    def test_truncation_can_unmake_an_alert(self):
        """A truncated alert whose signature was cut off is no longer
        taggable — the asymmetric-reporting reality the paper describes."""
        from repro.core.rules import get_ruleset
        from repro.core.tagging import Tagger

        tagger = Tagger(get_ruleset("liberty"))
        record = LogRecord(
            timestamp=1.0, source="ln1", facility="pbs_mom",
            body="task_check, cannot tm_reply to 1.admin task 1",
            system="liberty",
        )
        assert tagger.match(record) is not None
        truncated = record.with_corruption(body=record.body[:9])  # "task_chec"
        assert tagger.match(truncated) is None
