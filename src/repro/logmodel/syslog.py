"""BSD syslog line parsing and rendering.

Thunderbird, Spirit, and Liberty generate their logs through ``syslog-ng``
(paper, Section 3.1): each node writes classic BSD-syslog lines which are
forwarded over UDP to a central logging server.  The on-disk format is::

    Mmm dd HH:MM:SS hostname facility[pid]: message body

BSD syslog timestamps carry no year and have one-second granularity, so
parsing requires a reference year.  Because UDP forwarding loses and mangles
messages under contention, the parser never raises on malformed input —
it produces a best-effort :class:`~repro.logmodel.record.LogRecord` with
``corrupted=True``, mirroring how the paper had to cope with truncated
and spliced lines (Section 3.2.1, "Corruption").

One regex match per line; the calendar arithmetic on both sides lives in
:mod:`repro.logmodel.clock`.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator

from .clock import (
    COLON_MINUTES, MONTH_ABBR, MONTHS, SECOND_TEXT, DayPrefixes, epoch,
    parse_stream, split,
)
from .record import Channel, LogRecord

#: ``facility[pid]: `` in front of the body; capturing the facility.
FACILITY_PATTERN = r"([A-Za-z_][\w.\-/ ]{0,40}?)(?:\[\d+\])?: "

#: month, day, hh, mm, ss, host, facility (or None), body.
_SYSLOG_RE = re.compile(
    r"^([A-Z][a-z]{2}) {1,2}(\d{1,2}) (\d{2}):(\d{2}):(\d{2}) (\S+) "
    r"(?:" + FACILITY_PATTERN + r")?(.*)$"
)


def syslog_parser(system: str) -> Callable[[str, int], LogRecord]:
    """The ``(line, year) -> LogRecord`` BSD-syslog parser stamping
    ``system`` on its records; ``year`` is the one the format omits."""

    def parse(line: str, year: int) -> LogRecord:
        line = line.rstrip("\n")
        match = _SYSLOG_RE.match(line)
        if match is None:
            return LogRecord(
                0.0, "", "", line, system, None, Channel.SYSLOG_UDP, True, line
            )
        month, day, hh, mm, ss, host, facility, body = match.groups()
        mon = MONTHS.get(month)
        if mon is None:
            mon, damaged = 1, True
        else:
            damaged = False
        try:
            timestamp = float(epoch(year, mon, day, hh, mm, ss))
        except (ValueError, OverflowError):
            timestamp, damaged = 0.0, True
        return LogRecord(
            timestamp, host, facility or "", body, system, None,
            Channel.SYSLOG_UDP, damaged, line,
        )

    return parse


def parse_syslog_line(line: str, year: int, system: str = "") -> LogRecord:
    """Parse one BSD syslog line (see :func:`syslog_parser`)."""
    return syslog_parser(system)(line, year)


#: Day number -> ``"Mmm dd "``; Red Storm's syslog lines share it.
BSD_DAYS = DayPrefixes(
    lambda year, month, mday: "%s %2d " % (MONTH_ABBR[month], mday)
)


def render_syslog_line(record: LogRecord) -> str:
    """Render a record back to BSD syslog format.

    For clean records this is the inverse of :func:`parse_syslog_line`
    (modulo the year, which the format cannot carry).  Corrupted records
    render their raw line verbatim when one is attached, since re-rendering
    damaged fields would fabricate structure that was never on the wire.
    """
    if record.corrupted and record.raw is not None:
        return record.raw
    day, second = split(record.timestamp)
    text = f"{record.facility}: {record.body}" if record.facility else record.body
    return (
        f"{BSD_DAYS[day]}{COLON_MINUTES[second // 60]}{SECOND_TEXT[second % 60]}"
        f" {record.source} {text}"
    )


def parse_syslog_stream(
    lines: Iterable[str],
    year: int,
    system: str = "",
) -> Iterator[LogRecord]:
    """The one stream parser, :func:`.clock.parse_stream`, for syslog."""
    return parse_stream(lines, syslog_parser(system), year)
