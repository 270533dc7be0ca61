"""Unit tests for the Red Storm log formats (syslog + DDN + RAS TCP)."""

import pytest

from repro.logmodel.dialects import parse_lines
from repro.logmodel.record import Channel
from repro.logmodel.redstorm import (
    parse_redstorm_line,
    parse_redstorm_syslog_line,
    render_redstorm_line,
)

SYSLOG_LINE = (
    "Mar 19 08:00:05 c2-0c0s4n1 ERR kernel: LustreError: 6309:0:"
    "(events.c:55:request_out_callback()) @@@ timeout (sent at 1142717221, "
    "300s ago)"
)
DDN_LINE = (
    "Mar 20 09:10:11 ddn3 CRIT DMT_HINT Warning: Verify Host 2 bus parity "
    "error: 0200 Tier:5 LUN:4"
)
RAS_LINE = (
    "2006-03-21 10:11:12 ec_heartbeat_stop src:::c0-0c1s2n3 "
    "svc:::c0-0c1s2n3 warn node heartbeat_fault"
)


class TestSyslogPath:
    def test_severity_recorded(self):
        record = parse_redstorm_syslog_line(SYSLOG_LINE, 2006)
        assert record.severity == "ERR"
        assert record.source == "c2-0c0s4n1"
        assert record.facility == "kernel"
        assert record.channel is Channel.SYSLOG_UDP

    def test_ddn_lines_get_ddn_channel(self):
        record = parse_redstorm_syslog_line(DDN_LINE, 2006)
        assert record.channel is Channel.DDN
        assert record.severity == "CRIT"
        assert record.body.startswith("DMT_HINT Warning")

    def test_missing_severity_is_corruption(self):
        line = "Mar 19 08:00:05 c2-0c0s4n1 kernel: hello"
        assert parse_redstorm_syslog_line(line, 2006).corrupted

    def test_strict_raises(self):
        """Garbage is a corrupted record, never an exception: there is
        no strict mode."""
        record = parse_redstorm_syslog_line("junk", 2006)
        assert record.corrupted
        assert record.timestamp == 0.0
        assert record.raw == "junk"
        assert record.channel is Channel.SYSLOG_UDP

    def test_round_trip(self):
        record = parse_redstorm_syslog_line(SYSLOG_LINE, 2006)
        assert render_redstorm_line(record) == SYSLOG_LINE


class TestRasPath:
    def test_fields(self):
        record = parse_redstorm_line(RAS_LINE, 2006)
        assert record.source == "c0-0c1s2n3"
        assert record.facility == "ec_heartbeat_stop"
        assert record.channel is Channel.RAS_TCP

    def test_no_severity_analog(self):
        # "the Red Storm TCP log path is not syslog and has no severity
        # analog" (Section 3.2)
        assert parse_redstorm_line(RAS_LINE, 2006).severity is None

    def test_full_text_carries_event_code(self):
        record = parse_redstorm_line(RAS_LINE, 2006)
        assert record.full_text().startswith("ec_heartbeat_stop:")

    def test_round_trip(self):
        record = parse_redstorm_line(RAS_LINE, 2006)
        assert render_redstorm_line(record) == RAS_LINE

    def test_garbage_tolerant(self):
        assert parse_redstorm_line("2006-03-21 oops", 2006).corrupted


class TestDispatch:
    def test_dispatches_ras(self):
        assert parse_redstorm_line(RAS_LINE, 2006).channel is Channel.RAS_TCP

    def test_dispatches_syslog(self):
        record = parse_redstorm_line(SYSLOG_LINE, 2006)
        assert record.channel is Channel.SYSLOG_UDP

    def test_stream_mixed_formats(self):
        records = list(
            parse_lines([SYSLOG_LINE, RAS_LINE, DDN_LINE], "redstorm", 2006)
        )
        assert [r.channel for r in records] == [
            Channel.SYSLOG_UDP, Channel.RAS_TCP, Channel.DDN,
        ]
        assert not any(r.corrupted for r in records)


class TestImpossibleTimestamps:
    """``calendar.timegm`` normalises out-of-range fields ("Feb 31
    25:61:61" is three days later), so both formats used to parse such a
    stamp clean and late; a Liberty or BG/L line with it is corrupted."""

    SYSLOG_STAMPS = [
        "Feb 31 12:00:00", "Feb 29 12:00:00", "Apr 31 00:00:00",
        "Mar  0 12:00:00", "Mar 32 12:00:00", "Mar 19 24:00:00",
        "Mar 19 12:60:00", "Mar 19 12:00:61", "Feb 31 25:61:61",
    ]
    RAS_STAMPS = [
        "2006-02-31 12:00:00", "2006-02-29 12:00:00", "2006-04-31 00:00:00",
        "2006-03-00 12:00:00", "2006-03-32 12:00:00", "2006-13-01 12:00:00",
        "2006-00-10 12:00:00", "2006-03-19 25:00:00", "2006-03-19 12:60:00",
        "2006-03-19 12:00:61", "2006-02-31 25:61:61",
    ]

    @pytest.mark.parametrize("stamp", SYSLOG_STAMPS)
    def test_syslog_path(self, stamp):
        line = f"{stamp} c0-0c0s0n0 CRIT kernel: hello"
        for parse in (parse_redstorm_syslog_line, parse_redstorm_line):
            record = parse(line, 2006)
            assert record.corrupted
            assert record.timestamp == 0.0
            assert record.channel is Channel.SYSLOG_UDP
            assert render_redstorm_line(record) == line

    @pytest.mark.parametrize("stamp", RAS_STAMPS)
    def test_ras_path(self, stamp):
        line = f"{stamp} ec_heartbeat_stop src:::c0-0c1s2n3 svc:::c0-0c1s2n3"
        record = parse_redstorm_line(line, 2006)
        assert record.corrupted
        assert record.timestamp == 0.0
        assert record.channel is Channel.RAS_TCP
        assert record.raw == line

    def test_leap_second_and_leap_day_stay_valid(self):
        assert not parse_redstorm_syslog_line(
            "Feb 29 23:59:60 c0-0c0s0n0 CRIT kernel: hello", 2004
        ).corrupted
        assert not parse_redstorm_line(
            "2004-02-29 23:59:60 ec_x src:::c0 svc:::c0", 2004
        ).corrupted
