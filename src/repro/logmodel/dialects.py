"""The dialect table: which parser reads and which renderer writes each
system's lines (paper, Section 3.1), decided here and nowhere else.

Every row's parser has one shape, ``(line, year) -> LogRecord``, never
raises (a damaged line is a ``corrupted`` record), and ignores ``year``
where a stamp carries its own; so one stream parser and one
year-rollover rule (:mod:`repro.logmodel.clock`) serve all five.  Look a
row up once per stream, not once per line.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from .bgl import bgl_parser, render_bgl_line
from .clock import parse_stream
from .record import LogRecord
from .redstorm import parse_redstorm_line, render_redstorm_line
from .syslog import render_syslog_line, syslog_parser


class Dialect(NamedTuple):
    """One system's row: its line parser and its line renderer."""

    parse: Callable[[str, int], LogRecord]
    render: Callable[[LogRecord], str]


DIALECTS = {
    "bgl": Dialect(bgl_parser, render_bgl_line),
    "redstorm": Dialect(parse_redstorm_line, render_redstorm_line),
    **{
        system: Dialect(syslog_parser(system), render_syslog_line)
        for system in ("thunderbird", "spirit", "liberty")
    },
}


def parse_lines(lines: Iterable[str], system: str, year: int) -> Iterator[LogRecord]:
    """The stream parser bound to ``system``'s dialect."""
    return parse_stream(lines, DIALECTS[system].parse, year)
