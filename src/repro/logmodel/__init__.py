"""Canonical log record model and parsers for the five machines' formats."""

from .record import (
    SYSTEM_NAMES,
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
    parse_bgl_line,
    parse_bgl_stream,
    render_bgl_line,
)
from .redstorm import (
    parse_redstorm_line,
    parse_redstorm_ras_line,
    parse_redstorm_stream,
    parse_redstorm_syslog_line,
    render_redstorm_line,
)
from .dialects import DIALECTS, Dialect, parse_lines
from .anonymize import Pseudonymizer
from .corruption import (
    CorruptionKind,
    CorruptionVerdict,
    best_template_match,
    classify_body,
    classify_record,
    common_prefix_length,
    looks_garbled,
)

__all__ = [
    "DIALECTS",
    "Dialect",
    "parse_lines",
    "Pseudonymizer",
    "SYSTEM_NAMES",
    "Channel",
    "LogRecord",
    "RasSeverity",
    "SyslogSeverity",
    "parse_syslog_line",
    "parse_syslog_stream",
    "render_syslog_line",
    "parse_bgl_line",
    "parse_bgl_stream",
    "render_bgl_line",
    "parse_redstorm_line",
    "parse_redstorm_ras_line",
    "parse_redstorm_stream",
    "parse_redstorm_syslog_line",
    "render_redstorm_line",
    "CorruptionKind",
    "CorruptionVerdict",
    "best_template_match",
    "classify_body",
    "classify_record",
    "common_prefix_length",
    "looks_garbled",
]
