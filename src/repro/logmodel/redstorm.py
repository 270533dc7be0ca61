"""Red Storm log formats.

Red Storm has several logging paths (paper, Section 3.1):

* **DDN path** — disk and RAID controller messages from the DDN subsystem
  travel a 100 Mbit network to a DDN-specific RAS machine running
  ``syslog-ng``.  These appear as syslog lines whose body starts with a DDN
  message code (``DMT_HINT``, ``DMT_310``, ``DMT_DINT``, ...).
* **Linux-node path** — login, Lustre I/O, and management nodes send
  ordinary syslog to a collector node.  Red Storm is the only Sandia system
  configured to *store* syslog severity (paper, Section 3.2), so its on-disk
  syslog format carries an explicit severity column::

      Mmm dd HH:MM:SS host SEVERITY facility: message body

* **RAS TCP path** — compute nodes, SeaStar NICs, and hierarchical
  management nodes send events over reliable TCP to the System Management
  Workstation (SMW).  This path "is not syslog and has no severity analog"
  (paper, Section 3.2).  Event lines look like::

      YYYY-MM-DD HH:MM:SS event_code src:::NODE svc:::NODE message body

Both stamp shapes go through :mod:`repro.logmodel.clock`: a stamp naming no
real instant (``Feb 31``, ``25:61:61``) is a corrupted line here as it is
on Liberty or BG/L, not a valid line some days later.
"""

from __future__ import annotations

import re

from .clock import (
    COLON_MINUTES, MONTHS, SECOND_TEXT, DayPrefixes, epoch, split,
)
from .record import Channel, LogRecord, SyslogSeverity
from .syslog import BSD_DAYS, FACILITY_PATTERN

#: month, day, hh, mm, ss, host, severity, facility (or None), body.  A
#: DDN controller's ``DMT_*`` code is part of the body, never a facility
#: ("DMT_HINT Warning: ..." must stay whole).
_RS_SYSLOG_RE = re.compile(
    r"^([A-Z][a-z]{2}) {1,2}(\d{1,2}) (\d{2}):(\d{2}):(\d{2}) (\S+) "
    r"(EMERG|ALERT|CRIT|ERR|WARNING|NOTICE|INFO|DEBUG) "
    r"(?:(?!DMT_)" + FACILITY_PATTERN + r")?(.*)$"
)

#: year, month, day, hh, mm, ss, event, src, svc, trailing body.
_RS_RAS_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2}) (\d{2}):(\d{2}):(\d{2}) "
    r"(\S+) src:::(\S*) svc:::(\S*)\s?(.*)$"
)


def _corrupt_record(line: str, channel: Channel) -> LogRecord:
    return LogRecord(0.0, "", "", line, "redstorm", None, channel, True, line)


def parse_redstorm_syslog_line(line: str, year: int) -> LogRecord:
    """Parse a severity-bearing Red Storm syslog line (DDN or Linux node)."""
    line = line.rstrip("\n")
    match = _RS_SYSLOG_RE.match(line)
    if match is None:
        return _corrupt_record(line, Channel.SYSLOG_UDP)
    month, day, hh, mm, ss, host, severity, facility, body = match.groups()
    mon = MONTHS.get(month)
    if mon is None:
        return _corrupt_record(line, Channel.SYSLOG_UDP)
    try:
        timestamp = float(epoch(year, mon, day, hh, mm, ss))
    except (ValueError, OverflowError):
        return _corrupt_record(line, Channel.SYSLOG_UDP)
    ddn = facility is None and body.startswith("DMT_")
    return LogRecord(
        timestamp, host, facility or "", body, "redstorm", severity,
        Channel.DDN if ddn else Channel.SYSLOG_UDP, False, line,
    )


def _ras_record(line: str, match) -> LogRecord:
    year, month, day, hh, mm, ss, event, src, svc, trailing = match.groups()
    try:
        timestamp = float(epoch(year, month, day, hh, mm, ss))
    except ValueError:
        return _corrupt_record(line, Channel.RAS_TCP)
    body = f"src:::{src} svc:::{svc}"
    if trailing:
        body = f"{body} {trailing}"
    return LogRecord(
        timestamp, src, event, body, "redstorm", None, Channel.RAS_TCP,
        False, line,
    )


def parse_redstorm_line(line: str, year: int) -> LogRecord:
    """Dispatch a line to the matching Red Storm format parser."""
    match = _RS_RAS_RE.match(line)
    if match is not None:
        return _ras_record(line.rstrip("\n"), match)
    return parse_redstorm_syslog_line(line, year)


#: Day number -> ``"YYYY-MM-DD "``.
_RAS_DAYS = DayPrefixes(lambda *ymd: "%04d-%02d-%02d " % ymd)


def render_redstorm_line(record: LogRecord) -> str:
    """Render a record in the on-disk format matching its channel."""
    if record.corrupted and record.raw is not None:
        return record.raw
    day, second = split(record.timestamp)
    time_of_day = f"{COLON_MINUTES[second // 60]}{SECOND_TEXT[second % 60]}"
    if record.channel is Channel.RAS_TCP:
        # Facility holds the event code; body embeds the src:::/svc::: fields.
        return f"{_RAS_DAYS[day]}{time_of_day} {record.facility} {record.body}"
    severity = record.severity if record.severity else SyslogSeverity.INFO.name
    text = f"{record.facility}: {record.body}" if record.facility else record.body
    return f"{BSD_DAYS[day]}{time_of_day} {record.source} {severity} {text}"
