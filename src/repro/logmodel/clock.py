"""Epoch <-> calendar conversion for every dialect, by lookup.

The five machines say about a billion lines (paper, Table 2); each has
its timestamp parsed once, and formatted once when a log is written.
Calendar arithmetic per line
(``calendar.timegm``, ``time.gmtime``, ``%``-formatting five fields) was
most of that cost, so it is done here once per *day* and remembered:
a log names a few hundred distinct days, and the time of day comes from
fixed tables.  The format modules keep only their regex and their
separators.

Timestamps are UTC throughout: log analysis treats them as a monotone
counter, and fixing the zone keeps results machine-independent.

A BSD-syslog stamp carries no year, and three of the five logs run
across New Year (paper, Section 3.1): :func:`roll_years` gives it one,
for every parse path.
"""

from __future__ import annotations

import calendar
import time
from typing import Callable, Iterable, Iterator, Optional, Tuple

#: RFC 3164 month abbreviations, pinned: ``calendar.month_abbr`` follows
#: the process locale, and a log line must not.
MONTH_ABBR = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
              "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
MONTHS = {abbr: number for number, abbr in enumerate(MONTH_ABBR) if abbr}

#: Bound on each day memo (cleared wholesale when full).  A year of log
#: is 366 entries; only a stream of scrambled dates gets near the bound.
DAY_MEMO_MAX = 4096

_TWO_DIGITS = tuple("%02d" % n for n in range(61))
#: Clock text -> seconds it contributes; ``:60`` allows a leap second.
_HOURS = {_TWO_DIGITS[h]: h * 3600 for h in range(24)}
_MINUTES = {_TWO_DIGITS[m]: m * 60 for m in range(60)}
_SECONDS = {_TWO_DIGITS[s]: s for s in range(61)}
#: (year, month, day), as ints or as the line's text -> midnight epoch.
_MIDNIGHTS: dict = {}


def _midnight(key) -> int:
    year, month, day = (int(field) for field in key)
    # ``timegm`` would silently normalise a "Feb 31" into March.
    if not 1 <= month <= 12:
        raise ValueError(f"month {month} out of range")
    if not 1 <= day <= calendar.monthrange(year, month)[1]:
        raise ValueError(f"day {day} out of range for {year}-{month:02d}")
    if len(_MIDNIGHTS) >= DAY_MEMO_MAX:
        _MIDNIGHTS.clear()
    base = _MIDNIGHTS[key] = calendar.timegm((year, month, day, 0, 0, 0))
    return base


def epoch(year, month, day, hh: str, mm: str, ss: str) -> int:
    """Epoch seconds of a UTC calendar stamp; ``ValueError`` if there is
    no such date or time.

    ``year``, ``month`` and ``day`` are ints or the line's digits,
    whichever the dialect has; ``hh``/``mm``/``ss`` are the line's digits.
    """
    key = (year, month, day)
    base = _MIDNIGHTS.get(key)
    if base is None:
        base = _midnight(key)
    try:
        return base + _HOURS[hh] + _MINUTES[mm] + _SECONDS[ss]
    except KeyError:
        # Not ASCII two-digit text in range — but ``\d`` also matches
        # other scripts' digits and ``int`` reads them, so only the
        # range decides.
        hour, minute, second = int(hh), int(mm), int(ss)
        if not (0 <= hour <= 23 and 0 <= minute <= 59 and 0 <= second <= 60):
            raise ValueError(f"time {hh}:{mm}:{ss} out of range") from None
        return base + hour * 3600 + minute * 60 + second


def split(timestamp) -> Tuple[int, int]:
    """``(day number, second of that day)`` of an epoch, floored the way
    ``time.gmtime`` floors.  A timestamp with no integer floor (NaN,
    infinity) raises what ``time.gmtime`` raises for it."""
    try:
        return divmod(int(timestamp // 1), 86400)
    except (ValueError, OverflowError):
        time.gmtime(timestamp)
        raise


class DayPrefixes(dict):
    """Day number -> one dialect's rendered date prefix, computed on
    first use: ``prefixes[day]`` is a plain dict hit ever after."""

    def __init__(self, render: Callable[[int, int, int], str]):
        super().__init__()
        self._render = render

    def __missing__(self, day: int) -> str:
        parts = time.gmtime(day * 86400)
        if len(self) >= DAY_MEMO_MAX:
            self.clear()
        prefix = self[day] = self._render(
            parts.tm_year, parts.tm_mon, parts.tm_mday
        )
        return prefix


def _minute_table(template: str) -> Tuple[str, ...]:
    return tuple(template % divmod(minute, 60) for minute in range(1440))


#: ``"HH:MM:"`` / ``"HH.MM."``, indexed by minute of the day, and
#: ``"00"``..``"59"``, indexed by second of the minute.  (No per-second
#: table: 86,400 strings per separator cost 11 MiB of resident memory.)
COLON_MINUTES = _minute_table("%02d:%02d:")
DOT_MINUTES = _minute_table("%02d.%02d.")
SECOND_TEXT = _TWO_DIGITS[:60]


def roll_years(
    lines: Iterable[str], parse: Callable, year: int,
    previous: Optional[float] = None,
) -> Iterator:
    """``parse(line, year)`` over ``lines``, moving to the next year at
    New Year as syslog daemons do: an uncorrupted stamp more than half a
    year behind the ``previous`` one is next year's, so its line is
    parsed again in that year.  One record per line."""
    for line in lines:
        record = parse(line, year)
        if (
            previous is not None
            and not record.corrupted
            and previous - record.timestamp > 182 * 86400
        ):
            year += 1
            record = parse(line, year)
        if not record.corrupted:
            previous = record.timestamp
        yield record


def parse_stream(lines: Iterable[str], parse: Callable, year: int) -> Iterator:
    """The one stream parser: blank lines skipped, :func:`roll_years`."""
    return roll_years(filter(str.strip, lines), parse, year)
