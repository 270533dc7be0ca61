"""The clock module against the ``calendar``/``time`` calls it replaced.

``reference_record`` below is the per-line arithmetic the format modules
used to do (named groups, ``int()`` per field, ``calendar.timegm``, a
second regex for the facility): the parsers must agree with it field for
field on the golden corpora and on generated lines.
"""

import calendar
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.logmodel import clock
from repro.logmodel.bgl import bgl_parser, render_bgl_line
from repro.logmodel.record import Channel, LogRecord
from repro.logmodel.redstorm import parse_redstorm_line, render_redstorm_line
from repro.logmodel.syslog import (
    parse_syslog_line,
    parse_syslog_stream,
    render_syslog_line,
)

GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "golden"
GOLDEN_YEAR = 2005
SYSTEMS = ("bgl", "thunderbird", "redstorm", "spirit", "liberty")
MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

# -- the reference ----------------------------------------------------------

_REF_BSD = re.compile(
    r"^(?P<mon>[A-Z][a-z]{2}) {1,2}(?P<day>\d{1,2}) "
    r"(?P<hh>\d{2}):(?P<mm>\d{2}):(?P<ss>\d{2}) (?P<host>\S+) (?P<rest>.*)$"
)
_REF_SEVERITY = re.compile(
    r"^(?P<sev>EMERG|ALERT|CRIT|ERR|WARNING|NOTICE|INFO|DEBUG) (?P<rest>.*)$"
)
_REF_FACILITY = re.compile(
    r"^(?P<fac>[A-Za-z_][\w.\-/ ]{0,40}?)(?:\[(?P<pid>\d+)\])?: (?P<body>.*)$"
)
_REF_BGL = re.compile(
    r"^(?P<yy>\d{4})-(?P<mo>\d{2})-(?P<dd>\d{2})-"
    r"(?P<hh>\d{2})\.(?P<mi>\d{2})\.(?P<ss>\d{2})\.(?P<us>\d{6}) "
    r"(?P<loc>\S+) RAS (?P<fac>\S+) (?P<sev>\S+) (?P<body>.*)$"
)
_REF_RAS = re.compile(
    r"^(?P<yy>\d{4})-(?P<mo>\d{2})-(?P<dd>\d{2}) "
    r"(?P<hh>\d{2}):(?P<mm>\d{2}):(?P<ss>\d{2}) "
    r"(?P<event>\S+) src:::(?P<src>\S*) svc:::(?P<svc>\S*)\s?(?P<body>.*)$"
)
_BGL_SEVERITIES = {"FATAL", "FAILURE", "SEVERE", "ERROR", "WARNING", "INFO"}


def reference_epoch(year, month, day, hh, mm, ss):
    """``calendar.timegm`` behind the validity rule; ``None`` if invalid."""
    if not 1 <= month <= 12:
        return None
    if not 1 <= day <= calendar.monthrange(year, month)[1]:
        return None
    if hh > 23 or mm > 59 or ss > 60:
        return None
    return calendar.timegm((year, month, day, hh, mm, ss, 0, 0, 0))


def _split_facility(rest):
    found = _REF_FACILITY.match(rest)
    return (found["fac"], found["body"]) if found else ("", rest)


def reference_record(line, system, year):
    """The record a clean line must parse to, or ``None`` for a line the
    tolerant parsers flag as corrupted."""
    if system == "bgl":
        m = _REF_BGL.match(line)
        if m is None or m["sev"] not in _BGL_SEVERITIES:
            return None
        base = reference_epoch(*(int(m[k]) for k in
                                 ("yy", "mo", "dd", "hh", "mi", "ss")))
        if base is None:
            return None
        return LogRecord(
            base + int(m["us"]) / 1e6, "" if m["loc"] == "NULL" else m["loc"],
            m["fac"], m["body"], "bgl", m["sev"], Channel.JTAG_MAILBOX,
        )
    if system == "redstorm":
        m = _REF_RAS.match(line)
        if m is not None:
            stamp = reference_epoch(*(int(m[k]) for k in
                                      ("yy", "mo", "dd", "hh", "mm", "ss")))
            if stamp is None:
                return None
            body = f"src:::{m['src']} svc:::{m['svc']}"
            if m["body"]:
                body = f"{body} {m['body']}"
            return LogRecord(float(stamp), m["src"], m["event"], body,
                             "redstorm", None, Channel.RAS_TCP)
    m = _REF_BSD.match(line)
    if m is None or m["mon"] not in MONTH_NAMES:
        return None
    stamp = reference_epoch(
        year, MONTH_NAMES.index(m["mon"]) + 1,
        int(m["day"]), int(m["hh"]), int(m["mm"]), int(m["ss"]),
    )
    if stamp is None:
        return None
    if system != "redstorm":
        facility, body = _split_facility(m["rest"])
        return LogRecord(float(stamp), m["host"], facility, body, system)
    sev = _REF_SEVERITY.match(m["rest"])
    if sev is None:
        return None
    if sev["rest"].startswith("DMT_"):
        facility, body, channel = "", sev["rest"], Channel.DDN
    else:
        facility, body = _split_facility(sev["rest"])
        channel = Channel.SYSLOG_UDP
    return LogRecord(float(stamp), m["host"], facility, body, "redstorm",
                     sev["sev"], channel)


def parse(line, system, year):
    if system == "bgl":
        return bgl_parser(line, year)
    if system == "redstorm":
        return parse_redstorm_line(line, year)
    return parse_syslog_line(line, year, system=system)


RENDERERS = {
    "bgl": render_bgl_line,
    "redstorm": render_redstorm_line,
    "liberty": render_syslog_line,
}


def assert_agrees_with_reference(line, system, year):
    record = parse(line, system, year)
    expected = reference_record(line, system, year)
    if expected is None:
        assert record.corrupted, line
    else:
        assert not record.corrupted, line
        assert record == expected, line
        assert type(record.timestamp) is float
        assert record.raw == line


# -- golden corpora ---------------------------------------------------------


@pytest.mark.parametrize("system", SYSTEMS)
def test_golden_lines_parse_as_reference_and_render_back(system):
    lines = (GOLDEN / f"{system}.log").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 400
    render = RENDERERS.get(system, render_syslog_line)
    for line in lines:
        assert_agrees_with_reference(line, system, GOLDEN_YEAR)
        record = parse(line, system, GOLDEN_YEAR)
        if not record.corrupted:
            # Not the raw short-cut: rebuild the line from the fields.
            assert render(LogRecord(
                record.timestamp, record.source, record.facility, record.body,
                record.system, record.severity, record.channel,
            )) == line


# -- differential: parsing ---------------------------------------------------

#: Mostly plausible fields, with every kind of out-of-range value close by.
stamps = st.tuples(
    st.integers(1969, 2101), st.integers(0, 14), st.integers(0, 33),
    st.integers(0, 26), st.integers(0, 62), st.integers(0, 63),
)


@given(stamps)
@settings(max_examples=500)
def test_epoch_is_timegm_exactly_when_the_stamp_exists(stamp):
    year, month, day, hh, mm, ss = stamp
    expected = reference_epoch(*stamp)
    texts = ["%04d" % year] + ["%02d" % field for field in stamp[1:]]
    for args in (texts, [year, month, str(day)] + texts[3:]):
        if expected is None:
            with pytest.raises(ValueError):
                clock.epoch(*args)
        else:
            assert clock.epoch(*args) == expected


#: Bodies that crowd the facility split: brackets, colons, DDN codes.
tails = st.text(alphabet="ab_Z09[]: .-/DMT", max_size=24)


@given(stamps, tails, st.sampled_from(SYSTEMS))
@settings(max_examples=500)
def test_parsers_agree_with_reference_on_generated_lines(stamp, tail, system):
    year, month, day, hh, mm, ss = stamp
    clock_text = "%02d:%02d:%02d" % (hh, mm, ss)
    name = MONTH_NAMES[month - 1] if 1 <= month <= 12 else "Xyz"
    if system == "bgl":
        lines = ["%04d-%02d-%02d-%02d.%02d.%02d.%06d R02-M1 RAS KERNEL %s %s"
                 % (year, month, day, hh, mm, ss, ss * 1000,
                    "FATAL" if ss % 2 else "BOGUS", tail)]
    elif system == "redstorm":
        lines = [
            "%s %2d %s c0-0c0s0n0 CRIT %s" % (name, day, clock_text, tail),
            "%s %2d %s ddn1 WARNING DMT_%s" % (name, day, clock_text, tail),
            "%04d-%02d-%02d %s ec_heartbeat_stop src:::c1-0 svc:::c1-0 %s"
            % (year, month, day, clock_text, tail),
        ]
    else:
        lines = ["%s %2d %s ln42 %s" % (name, day, clock_text, tail)]
    for line in lines:
        if name == "Xyz" and system not in ("bgl", "redstorm"):
            # Syslog keeps going after a bad month (January stands in,
            # the record is flagged): not the reference's business.
            assert parse(line, system, year).corrupted
        else:
            assert_agrees_with_reference(line, system, year)


# -- differential: rendering -------------------------------------------------

seconds = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)


@given(seconds, st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=500)
def test_render_pieces_equal_gmtime(second, fraction):
    tm = time.gmtime(second)
    hms = (tm.tm_hour, tm.tm_min, tm.tm_sec)
    bsd = "%s %2d %02d:%02d:%02d" % ((MONTH_NAMES[tm.tm_mon - 1], tm.tm_mday) + hms)
    ymd = (tm.tm_year, tm.tm_mon, tm.tm_mday)
    for timestamp in (second, float(second), second + fraction):
        record = LogRecord(timestamp, "n1", "kernel", "x", "liberty")
        assert render_syslog_line(record) == f"{bsd} n1 kernel: x"
        record = LogRecord(timestamp, "n1", "kernel", "x", "redstorm", "ERR")
        assert render_redstorm_line(record) == f"{bsd} n1 ERR kernel: x"
        record = LogRecord(timestamp, "n1", "ec_x", "src:::n1 svc:::n1",
                           "redstorm", None, Channel.RAS_TCP)
        assert render_redstorm_line(record) == (
            "%04d-%02d-%02d %02d:%02d:%02d ec_x src:::n1 svc:::n1" % (ymd + hms)
        )
    if second >= 0:  # BG/L truncates towards zero; its logs start in 2005
        record = LogRecord(float(second), "R00", "KERNEL", "x", "bgl", "INFO",
                           Channel.JTAG_MAILBOX)
        assert render_bgl_line(record) == (
            "%04d-%02d-%02d-%02d.%02d.%02d.000000 R00 RAS KERNEL INFO x"
            % (ymd + hms)
        )


@pytest.mark.parametrize("timestamp, error", [
    (float("nan"), ValueError),
    (float("inf"), OverflowError),
    (float("-inf"), OverflowError),
])
def test_unrepresentable_timestamps_raise_what_gmtime_raises(timestamp, error):
    with pytest.raises(error):
        time.gmtime(timestamp)
    for system, render in RENDERERS.items():
        for channel in (Channel.SYSLOG_UDP, Channel.RAS_TCP):
            record = LogRecord(timestamp, "n1", "kernel", "x", system,
                               None, channel)
            with pytest.raises(error):
                render(record)


# -- named cases --------------------------------------------------------------


@pytest.mark.parametrize("year, leap", [(2004, True), (2005, False), (2100, False)])
def test_feb_29(year, leap):
    record = parse_syslog_line("Feb 29 12:00:00 n1 kernel: x", year)
    assert record.corrupted is not leap
    if leap:
        assert record.timestamp == calendar.timegm((year, 2, 29, 12, 0, 0))
    bgl = bgl_parser(f"{year}-02-29-12.00.00.000000 R00 RAS KERNEL INFO x", year)
    assert bgl.corrupted is not leap


@pytest.mark.parametrize("day, valid", [
    (" 3", True), ("3", True), ("03", True), ("0", False), ("32", False),
])
def test_day_spellings(day, valid):
    record = parse_syslog_line(f"Mar {day} 01:02:03 n1 kernel: x", 2005)
    assert record.corrupted is not valid
    if valid:
        assert record.timestamp == calendar.timegm((2005, 3, 3, 1, 2, 3))


def test_leap_second_is_accepted():
    record = parse_syslog_line("Dec 31 23:59:60 n1 kernel: x", 2005)
    assert not record.corrupted
    assert record.timestamp == calendar.timegm((2006, 1, 1, 0, 0, 0))
    assert parse_syslog_line("Dec 31 23:59:61 n1 kernel: x", 2005).corrupted


def test_stamp_in_arabic_indic_digits_still_parses():
    """``\\d`` matches them and ``int()`` reads them: the lookup tables'
    ASCII keys must not turn such a line into a corrupted one."""
    record = parse_syslog_line(
        "Mar ١٢ ٠١:٠٢:٠٣ n1 kernel: x", 2005
    )
    assert not record.corrupted
    assert record.timestamp == calendar.timegm((2005, 3, 12, 1, 2, 3))
    assert parse_syslog_line(
        "Mar 12 ٢٥:00:00 n1 kernel: x", 2005
    ).corrupted  # hour 25


def test_rollover_uses_both_years_days():
    lines = [
        "Dec 31 23:59:59 n1 kernel: last",
        "Jan  1 00:00:01 n1 kernel: first",
        "Feb 29 00:00:00 n1 kernel: leap day of the new year",
    ]
    records = list(parse_syslog_stream(lines, 2003))
    assert [r.corrupted for r in records] == [False, False, False]
    assert [r.timestamp for r in records] == [
        calendar.timegm((2003, 12, 31, 23, 59, 59)),
        calendar.timegm((2004, 1, 1, 0, 0, 1)),
        calendar.timegm((2004, 2, 29, 0, 0, 0)),
    ]
    # Jan 1 was tried under 2003 before the rollover was noticed: both
    # years' entries are memoised, and neither answers for the other.
    assert clock.epoch(2003, 1, "1", "00", "00", "01") == \
        calendar.timegm((2003, 1, 1, 0, 0, 1))
    assert clock.epoch(2004, 1, "1", "00", "00", "01") == \
        calendar.timegm((2004, 1, 1, 0, 0, 1))


def test_day_memos_are_bounded_and_eviction_changes_nothing(monkeypatch):
    monkeypatch.setattr(clock, "DAY_MEMO_MAX", 8)
    monkeypatch.setattr(clock, "_MIDNIGHTS", {})
    prefixes = clock.DayPrefixes(lambda *ymd: "%04d-%02d-%02d" % ymd)
    for _ in range(2):
        for day in range(40):
            expected = time.gmtime(day * 86400)
            assert prefixes[day] == time.strftime("%Y-%m-%d", expected)
            assert clock.epoch(1970, 1 + day // 28, 1 + day % 28,
                               "00", "00", "00") == calendar.timegm(
                (1970, 1 + day // 28, 1 + day % 28, 0, 0, 0))
            assert len(prefixes) <= 8
            assert len(clock._MIDNIGHTS) <= 8


def test_month_names_do_not_follow_the_locale(monkeypatch):
    """An embedding application's ``setlocale(LC_TIME, ...)`` changes
    ``calendar.month_abbr``; RFC 3164 names are fixed."""
    german = ["", "Jan", "Feb", "Mär", "Apr", "Mai", "Jun",
              "Jul", "Aug", "Sep", "Okt", "Nov", "Dez"]
    monkeypatch.setattr(calendar, "month_abbr", german)
    stamp = calendar.timegm((2005, 12, 24, 18, 0, 0))
    line = "Dec 24 18:00:00 n1 kernel: x"
    assert render_syslog_line(
        LogRecord(float(stamp), "n1", "kernel", "x", "liberty")) == line
    assert parse_syslog_line(line, 2005).timestamp == stamp
    rs_line = "Dec 24 18:00:00 n1 ERR kernel: x"
    assert render_redstorm_line(
        LogRecord(float(stamp), "n1", "kernel", "x", "redstorm", "ERR")) == rs_line
    assert parse_redstorm_line(rs_line, 2005).timestamp == stamp
    assert render_bgl_line(LogRecord(
        float(stamp), "R00", "KERNEL", "x", "bgl", "INFO", Channel.JTAG_MAILBOX,
    )).startswith("2005-12-24-18.00.00.000000 ")
