"""Canonical log record model and parsers for the five machines' formats."""

from .record import (
    Channel,
    LogRecord,
    RasSeverity,
    SyslogSeverity,
)
from .syslog import (
    parse_syslog_line,
    parse_syslog_stream,
    render_syslog_line,
)
from .bgl import (
    render_bgl_line,
)
from .redstorm import (
    parse_redstorm_line,
    parse_redstorm_syslog_line,
    render_redstorm_line,
)
from .dialects import DIALECTS, Dialect, parse_lines
from .anonymize import Pseudonymizer
from .corruption import looks_garbled

__all__ = [
    "DIALECTS",
    "Dialect",
    "parse_lines",
    "Pseudonymizer",
    "Channel",
    "LogRecord",
    "RasSeverity",
    "SyslogSeverity",
    "parse_syslog_line",
    "parse_syslog_stream",
    "render_syslog_line",
    "render_bgl_line",
    "parse_redstorm_line",
    "parse_redstorm_syslog_line",
    "render_redstorm_line",
    "looks_garbled",
]
