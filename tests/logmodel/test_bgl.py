"""Unit tests for the BG/L RAS event format."""

import pytest

from repro.logmodel.bgl import (
    FACILITIES,
    parse_bgl_line,
    parse_bgl_stream,
    render_bgl_line,
)
from repro.logmodel.record import Channel, LogRecord

GOOD_LINE = (
    "2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL FATAL "
    "data TLB error interrupt"
)


class TestParse:
    def test_fields(self):
        record = parse_bgl_line(GOOD_LINE)
        assert not record.corrupted
        assert record.source == "R02-M1-N0-C:J12-U11"
        assert record.facility == "KERNEL"
        assert record.severity == "FATAL"
        assert record.body == "data TLB error interrupt"
        assert record.system == "bgl"
        assert record.channel is Channel.JTAG_MAILBOX

    def test_microsecond_timestamps(self):
        record = parse_bgl_line(GOOD_LINE)
        assert record.timestamp == pytest.approx(1117813370.363779, abs=1e-6)

    def test_null_location_becomes_empty_source(self):
        line = (
            "2005-06-03-15.42.50.363779 NULL RAS BGLMASTER FAILURE "
            "ciodb exited normally with exit code 0"
        )
        record = parse_bgl_line(line)
        assert record.source == ""
        assert record.severity == "FAILURE"

    def test_unknown_severity_is_corruption(self):
        line = GOOD_LINE.replace("FATAL", "CRITICAL")
        assert parse_bgl_line(line).corrupted

    def test_garbage_tolerant(self):
        record = parse_bgl_line("VAPI_EAGAI")
        assert record.corrupted
        assert record.raw == "VAPI_EAGAI"

    def test_garbage_strict(self):
        """Garbage is a corrupted record, never an exception: there is
        no strict mode."""
        record = parse_bgl_line("VAPI_EAGAI")
        assert record.corrupted
        assert record.timestamp == 0.0
        assert record.channel is Channel.JTAG_MAILBOX
        assert render_bgl_line(record) == "VAPI_EAGAI"

    def test_bad_calendar_date_tolerant(self):
        line = GOOD_LINE.replace("2005-06-03", "2005-02-31")
        assert parse_bgl_line(line).corrupted


class TestRender:
    def test_round_trip(self):
        record = parse_bgl_line(GOOD_LINE)
        assert render_bgl_line(record) == GOOD_LINE

    def test_round_trip_preserves_microseconds(self):
        record = parse_bgl_line(GOOD_LINE)
        again = parse_bgl_line(render_bgl_line(record))
        assert again.timestamp == record.timestamp

    def test_empty_source_renders_null(self):
        record = LogRecord(
            timestamp=0.25,
            source="",
            facility="MMCS",
            body="x",
            system="bgl",
            severity="INFO",
            channel=Channel.JTAG_MAILBOX,
        )
        line = render_bgl_line(record)
        assert " NULL RAS MMCS INFO x" in line

    def test_corrupted_renders_raw(self):
        record = parse_bgl_line("junk")
        assert render_bgl_line(record) == "junk"

    def test_microsecond_rounding_never_overflows(self):
        record = LogRecord(
            timestamp=9.9999999,  # rounds to 10.000000, not 9.1000000
            source="R00-M0-N0",
            facility="KERNEL",
            body="x",
            system="bgl",
            severity="INFO",
            channel=Channel.JTAG_MAILBOX,
        )
        line = render_bgl_line(record)
        assert parse_bgl_line(line).timestamp == pytest.approx(10.0)


def test_stream_skips_blanks():
    records = list(parse_bgl_stream(["", GOOD_LINE, "  "]))
    assert len(records) == 1


def test_known_facilities_include_papers_examples():
    for facility in ("KERNEL", "APP", "BGLMASTER", "MMCS"):
        assert facility in FACILITIES
