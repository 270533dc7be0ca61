"""Streaming log I/O in each machine's native on-disk format."""

from .reader import read_log
from .stats import LogStats, StatsCollector
from .writer import (
    renderer_for,
    write_log,
)

__all__ = [
    "read_log",
    "LogStats",
    "StatsCollector",
    "renderer_for",
    "write_log",
]
