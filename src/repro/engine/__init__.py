"""The composable stage engine behind :mod:`repro.api`.

One :class:`AlertPath` expresses the per-record semantics of Sections
3.1-3.3 exactly once — validate -> observe stats -> tag -> severity ->
filter -> report/dead-letter — and pluggable drivers
(:class:`SerialDriver`, :class:`ShardedDriver`, :class:`BoundedDriver`)
decide the execution schedule.  :mod:`repro.engine.capabilities` is the
single composition table the drivers are picked from.
"""

from .capabilities import (
    BYTE_IDENTICAL,
    CAPABILITY_TABLE,
    SHED_TOLERANCE,
    DriverCapabilities,
    build_driver,
    capability_lines,
)
from .drivers import BoundedDriver, Driver, DriverReport, SerialDriver, ShardedDriver
from .path import DEFAULT_REORDER_TOLERANCE, AlertPath
from .result import PipelineResult
from .stages import AlertListSink, Sink, Source, SourceFactory

__all__ = [
    "AlertListSink",
    "AlertPath",
    "BYTE_IDENTICAL",
    "BoundedDriver",
    "CAPABILITY_TABLE",
    "DEFAULT_REORDER_TOLERANCE",
    "Driver",
    "DriverCapabilities",
    "DriverReport",
    "PipelineResult",
    "SHED_TOLERANCE",
    "SerialDriver",
    "ShardedDriver",
    "Sink",
    "Source",
    "SourceFactory",
    "build_driver",
    "capability_lines",
]
