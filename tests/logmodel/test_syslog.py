"""Unit and property tests for BSD syslog parsing/rendering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logmodel.record import LogRecord
from repro.logmodel.syslog import (
    parse_syslog_line,
    parse_syslog_stream,
    render_syslog_line,
)


class TestParse:
    def test_basic_line(self):
        record = parse_syslog_line(
            "Nov  9 12:01:02 sn373 kernel: EXT3-fs error (device sda5)",
            year=2005,
            system="spirit",
        )
        assert not record.corrupted
        assert record.source == "sn373"
        assert record.facility == "kernel"
        assert record.body == "EXT3-fs error (device sda5)"
        assert record.system == "spirit"
        # 2005-11-09 12:01:02 UTC
        assert record.timestamp == 1131537662.0

    def test_facility_with_pid(self):
        record = parse_syslog_line(
            "Jan  1 00:00:00 ln4 gm_mapper[736]: assertion failed.", 2005
        )
        assert record.facility == "gm_mapper"
        assert record.body == "assertion failed."

    def test_no_facility(self):
        record = parse_syslog_line("Jan  1 00:00:00 ln4 bare message", 2005)
        assert record.facility == ""
        assert record.body == "bare message"

    def test_two_digit_day_padding(self):
        one = parse_syslog_line("Jan  1 00:00:00 n m: x", 2005)
        ten = parse_syslog_line("Jan 10 00:00:00 n m: x", 2005)
        assert ten.timestamp - one.timestamp == 9 * 86400

    def test_malformed_line_tolerant(self):
        record = parse_syslog_line("complete garbage", 2005)
        assert record.corrupted
        assert record.body == "complete garbage"
        assert record.raw == "complete garbage"

    def test_malformed_line_strict_raises(self):
        """Garbage is a corrupted record stamped with its system, never an
        exception: there is no strict mode."""
        record = parse_syslog_line("complete garbage", 2005, system="liberty")
        assert record.corrupted
        assert record.timestamp == 0.0
        assert record.system == "liberty"
        assert record.raw == "complete garbage"

    def test_bad_month_tolerant(self):
        record = parse_syslog_line("Xxx  9 12:00:00 n kernel: hi", 2005)
        assert record.corrupted

    def test_bad_day_tolerant(self):
        record = parse_syslog_line("Feb 31 12:00:00 n kernel: hi", 2005)
        assert record.corrupted

    def test_strips_trailing_newline(self):
        record = parse_syslog_line("Jan  1 00:00:00 n m: x\n", 2005)
        assert not record.corrupted
        assert record.body == "x"


class TestRender:
    def test_round_trip(self):
        line = "Nov  9 12:01:02 tn231 pbs_mom: Connection refused (111)"
        record = parse_syslog_line(line, 2005)
        assert render_syslog_line(record) == line

    def test_corrupted_records_render_raw(self):
        record = parse_syslog_line("garbage line", 2005)
        assert render_syslog_line(record) == "garbage line"

    def test_render_without_facility(self):
        record = LogRecord(
            timestamp=0.0, source="n1", facility="", body="hello",
        )
        assert render_syslog_line(record) == "Jan  1 00:00:00 n1 hello"


class TestStream:
    def test_skips_blank_lines(self):
        lines = ["", "Jan  1 00:00:00 n m: x", "   ", "Jan  1 00:00:01 n m: y"]
        records = list(parse_syslog_stream(lines, 2005))
        assert [r.body for r in records] == ["x", "y"]

    def test_year_rollover(self):
        lines = [
            "Dec 31 23:59:59 n m: before",
            "Jan  1 00:00:01 n m: after",
        ]
        records = list(parse_syslog_stream(lines, 2004))
        assert records[1].timestamp > records[0].timestamp
        assert records[1].timestamp - records[0].timestamp == 2.0


@st.composite
def clean_records(draw):
    """Records whose fields survive the syslog format's constraints."""
    timestamp = draw(
        st.integers(min_value=1104537600, max_value=1135900800)  # 2005
    )
    source = draw(st.from_regex(r"[a-z][a-z0-9\-]{0,14}", fullmatch=True))
    facility = draw(st.from_regex(r"[a-z][a-z0-9_./\-]{0,10}", fullmatch=True))
    body = draw(st.from_regex(r"[ -~]{1,60}", fullmatch=True))
    return LogRecord(
        timestamp=float(timestamp),
        source=source,
        facility=facility,
        body=body,
        system="test",
    )


@given(clean_records())
@settings(max_examples=200)
def test_property_render_parse_preserves_semantics(record):
    """render o parse keeps timestamp, source, and full text for any clean
    record (the body/facility split can legitimately move when the body
    itself contains ': ', but the matched-against text must not change)."""
    line = render_syslog_line(record)
    parsed = parse_syslog_line(line, 2005)
    assert not parsed.corrupted
    assert parsed.timestamp == record.timestamp
    assert parsed.source == record.source
    assert parsed.full_text() == record.full_text()


@given(st.text(alphabet=st.characters(blacklist_characters="\n"), max_size=80))
@settings(max_examples=200)
def test_property_parser_never_raises_in_tolerant_mode(line):
    record = parse_syslog_line(line, 2005)
    assert isinstance(record, LogRecord)
