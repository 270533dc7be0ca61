"""BG/L RAS event format.

On Blue Gene/L, logging is managed by the Machine Management Control System
(MMCS): compute chips store errors locally until polled over the JTAG
mailbox (~1 ms polling period for the paper's logs), and the service-node
MMCS process relays events to a centralized DB2 RAS database (paper,
Section 3.1).  Events carry microsecond timestamps, a location string, a
reporting facility, and a severity drawn from
{FATAL, FAILURE, SEVERE, ERROR, WARNING, INFO} (paper, Table 5).

We serialize RAS events as one line per event::

    YYYY-MM-DD-HH.MM.SS.ffffff LOCATION RAS FACILITY SEVERITY message body

which mirrors the flat export format of the BG/L RAS database.  ``LOCATION``
is a hardware coordinate such as ``R02-M1-N0-C:J12-U11`` (rack, midplane,
node card, chip), or ``NULL`` when the event has no attributable location —
the paper's operational-context example message shows exactly such a
``NULL`` location.

The stamp is validated and converted by :mod:`repro.logmodel.clock`, under
the same rule as every other dialect's.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .clock import DOT_MINUTES, SECOND_TEXT, DayPrefixes, epoch, parse_stream
from .record import Channel, LogRecord, RasSeverity

#: year, month, day, hh, mm, ss, micros, location, facility, severity, body.
_BGL_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})-(\d{2})\.(\d{2})\.(\d{2})\.(\d{6}) "
    r"(\S+) RAS (\S+) (\S+) (.*)$"
)

_SEVERITY_LABELS = frozenset(sev.name for sev in RasSeverity)

FACILITIES = (
    "KERNEL",
    "APP",
    "DISCOVERY",
    "MMCS",
    "BGLMASTER",
    "LINKCARD",
    "MONITOR",
    "HARDWARE",
    "CMCS",
    "SERV_NET",
)
"""RAS-reporting facilities observed in BG/L logs."""


def _corrupt_record(line: str) -> LogRecord:
    return LogRecord(
        0.0, "", "", line, "bgl", None, Channel.JTAG_MAILBOX, True, line
    )


def bgl_parser(line: str, _year: int) -> LogRecord:
    """Parse one BG/L RAS event line in the dialect table's ``(line,
    year)`` form; the year goes unused, since a BG/L stamp has its own.

    Malformed lines come back as records with ``corrupted=True`` rather
    than raising: even "highly engineered RAS systems, like BG/L",
    produce corrupted entries (paper, Section 3.2.1).
    """
    line = line.rstrip("\n")
    match = _BGL_RE.match(line)
    if match is None or match.group(10) not in _SEVERITY_LABELS:
        return _corrupt_record(line)
    (year, month, day, hh, mi, ss, micros,
     location, facility, severity, body) = match.groups()
    try:
        timestamp = epoch(year, month, day, hh, mi, ss) + int(micros) / 1e6
    except ValueError:
        return _corrupt_record(line)
    return LogRecord(
        timestamp, "" if location == "NULL" else location, facility, body,
        "bgl", severity, Channel.JTAG_MAILBOX, False, line,
    )


def parse_bgl_line(line: str) -> LogRecord:
    """Parse one BG/L RAS event line (see :func:`bgl_parser`)."""
    return bgl_parser(line, 0)


#: Day number -> ``"YYYY-MM-DD-"``.
_DAYS = DayPrefixes(lambda *ymd: "%04d-%02d-%02d-" % ymd)


def render_bgl_line(record: LogRecord) -> str:
    """Render a record in BG/L RAS export format (inverse of the parser)."""
    if record.corrupted and record.raw is not None:
        return record.raw
    whole = int(record.timestamp)
    micros = int(round((record.timestamp - whole) * 1e6))
    if micros >= 1_000_000:  # float rounding pushed us to the next second
        whole += 1
        micros = 0
    day, second = divmod(whole, 86400)
    location = record.source if record.source else "NULL"
    severity = record.severity if record.severity else "INFO"
    return (
        f"{_DAYS[day]}{DOT_MINUTES[second // 60]}{SECOND_TEXT[second % 60]}"
        f".{micros:06d} {location} RAS {record.facility} {severity} {record.body}"
    )


def parse_bgl_stream(lines: Iterable[str]) -> Iterator[LogRecord]:
    """The one stream parser, :func:`.clock.parse_stream`, for BG/L."""
    return parse_stream(lines, bgl_parser, 0)
