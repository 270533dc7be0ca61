"""Canonical log record model.

Every subsystem in this library — the synthetic generators, the parsers for
the five machines' native formats, the alert taggers, and the filters —
speaks in terms of :class:`LogRecord`.  The paper studies logs that differ
wildly in structure (BSD syslog on Thunderbird/Spirit/Liberty, DDN controller
lines and RAS events on Red Storm, a DB2 RAS database on BG/L), so the
canonical record keeps the union of fields and marks the ones a given format
does not carry as ``None``.

Timestamps are POSIX epoch seconds stored as ``float``.  Syslog has
one-second granularity; BG/L's RAS database records microseconds (the paper,
Section 3.1, notes "the time granularity for BG/L logs is down to the
microsecond, unlike the one-second granularity of typical syslogs"), which a
float represents exactly for the epochs involved.

A record is an immutable named tuple (:class:`KeyedTuple`): every parse
path builds one per line, so its construction is one allocation and one
type check.  Pickles of the frozen-dataclass records of earlier versions
do not load into it.  A parsed record keeps the line it was read from in
``raw``, which Table 2's size columns measure (:mod:`repro.logio.stats`);
``raw`` rides along and takes no part in equality or hashing.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import List, Optional, Sequence


class SyslogSeverity(enum.IntEnum):
    """BSD syslog severity levels (RFC 3164), most severe first.

    Only Red Storm among the Sandia machines stored syslog severities
    (paper, Section 3.2); Thunderbird, Spirit, and Liberty did not record
    this field at all.
    """

    EMERG = 0
    ALERT = 1
    CRIT = 2
    ERR = 3
    WARNING = 4
    NOTICE = 5
    INFO = 6
    DEBUG = 7

    @classmethod
    def from_label(cls, label: str) -> "SyslogSeverity":
        """Parse a severity label such as ``"crit"`` (case-insensitive)."""
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown syslog severity label: {label!r}") from None


class RasSeverity(enum.IntEnum):
    """BG/L RAS event severities, most severe first (paper, Table 5)."""

    FATAL = 0
    FAILURE = 1
    SEVERE = 2
    ERROR = 3
    WARNING = 4
    INFO = 5

    @classmethod
    def from_label(cls, label: str) -> "RasSeverity":
        """Parse a RAS severity label such as ``"FATAL"`` (case-insensitive)."""
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown RAS severity label: {label!r}") from None


class Channel(enum.Enum):
    """The logging path a record traveled (paper, Section 3.1).

    The five machines use three distinct transport architectures, and the
    path matters: UDP syslog loses messages under contention, the Red Storm
    RAS network uses reliable TCP, and BG/L compute chips buffer errors
    locally until the JTAG mailbox poll collects them.
    """

    SYSLOG_UDP = "syslog-udp"
    SYSLOG_LOCAL = "syslog-local"
    RAS_TCP = "ras-tcp"
    JTAG_MAILBOX = "jtag-mailbox"
    DDN = "ddn"


class KeyedTuple:
    """Value semantics for a named tuple whose last field rides along.

    Equality and hash cover every field but the last (a record's ``raw``
    line, an alert's ``record``), and hold only between instances of the
    same class: a plain tuple with the same items is unequal.  Instances
    are unordered.  Mix in ahead of the ``namedtuple`` base.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self[:-1] == other[:-1]
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self[:-1])

    def __lt__(self, other):
        raise TypeError(f"{type(self).__name__} instances are unordered")

    __le__ = __gt__ = __ge__ = __lt__


_new_tuple = tuple.__new__


class LogRecord(KeyedTuple, namedtuple(
    "LogRecord",
    "timestamp source facility body system severity channel corrupted raw",
)):
    """One log message, normalized across the five systems' formats.

    Attributes
    ----------
    timestamp:
        POSIX epoch seconds.  Fractional for BG/L (microsecond granularity);
        whole seconds for syslog-based systems.
    source:
        The reporting component: a node name (``"sn373"``, ``"tbird-admin1"``),
        a BG/L location string, or a DDN controller id.  May be an empty
        string when the source field was corrupted in transit — the paper's
        Figure 2(b) shows a cluster of messages "whose source field was
        corrupted, thwarting attribution".
    facility:
        The reporting program or subsystem (``"kernel"``, ``"pbs_mom"``,
        ``"ciod"``, ``"MMCS"``...).  Empty when unknown.
    body:
        The unstructured message body.
    system:
        Which supercomputer produced the record (``"bgl"``, ``"thunderbird"``,
        ``"redstorm"``, ``"spirit"``, ``"liberty"``).
    severity:
        Severity label as recorded, or ``None`` when the format does not
        carry one (Thunderbird/Spirit/Liberty syslogs).  Stored as the raw
        string label; use :meth:`syslog_severity` / :meth:`ras_severity` for
        the typed view.
    channel:
        Which logging path the record traveled.
    corrupted:
        ``True`` when the generator injected corruption or a parser detected
        structural damage (truncation, splice, garbled fields).
    raw:
        The line the record was parsed from, without its newline, or
        ``None`` for a record that was never read (generated, anonymized,
        re-stamped).  Excluded from equality and hashing.

    Every construction path — the constructor, ``_make``, ``_replace``,
    unpickling and copying — rejects a non-numeric timestamp with
    ``TypeError``.
    """

    __slots__ = ()

    def __new__(
        cls, timestamp, source, facility, body, system="", severity=None,
        channel=Channel.SYSLOG_UDP, corrupted=False, raw=None,
    ):
        # Every parser passes a float: test for that first, it is cheaper.
        if timestamp.__class__ is not float and not isinstance(
            timestamp, (int, float)
        ):
            raise TypeError(
                f"timestamp must be a number, got {type(timestamp).__name__}"
            )
        return _new_tuple(cls, (timestamp, source, facility, body, system,
                                severity, channel, corrupted, raw))

    @classmethod
    def _make(cls, iterable) -> "LogRecord":
        # The namedtuple ``_make`` (which ``_replace`` calls) builds the
        # tuple directly; route it through the checked constructor.
        return cls(*iterable)

    def syslog_severity(self) -> Optional[SyslogSeverity]:
        """The severity as a syslog level, or ``None`` if absent/foreign."""
        if self.severity is None:
            return None
        try:
            return SyslogSeverity.from_label(self.severity)
        except ValueError:
            return None

    def ras_severity(self) -> Optional[RasSeverity]:
        """The severity as a BG/L RAS level, or ``None`` if absent/foreign."""
        if self.severity is None:
            return None
        try:
            return RasSeverity.from_label(self.severity)
        except ValueError:
            return None

    def with_corruption(self, body: str, source: Optional[str] = None) -> "LogRecord":
        """A copy of this record with damaged fields and ``corrupted=True``."""
        if source is None:
            return self._replace(body=body, corrupted=True)
        return self._replace(body=body, source=source, corrupted=True)

    def full_text(self) -> str:
        """The facility-prefixed body, as it would appear after the hostname
        in a syslog line.  This is the string expert rules match against."""
        if self.facility:
            return f"{self.facility}: {self.body}"
        return self.body


def full_texts(records: Sequence[LogRecord]) -> List[str]:
    """:meth:`LogRecord.full_text` of every record, inlined: the batch
    paths (in-process matching, the shard wire encoder) build one text
    per record, where a method call per record is a measurable cost."""
    return [
        f"{r.facility}: {r.body}" if r.facility else r.body for r in records
    ]
