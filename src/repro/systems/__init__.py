"""Static descriptions of the five supercomputers (paper Tables 1 and 2)."""

from .specs import (
    BGL,
    LIBERTY,
    LOG_SPECS,
    PAPER_TOTAL_ALERTS,
    PAPER_TOTAL_CATEGORIES,
    RED_STORM,
    SPIRIT,
    SYSTEMS,
    THUNDERBIRD,
    LogSpec,
    SystemSpec,
    get_system,
)

__all__ = [
    "BGL",
    "LIBERTY",
    "LOG_SPECS",
    "PAPER_TOTAL_ALERTS",
    "PAPER_TOTAL_CATEGORIES",
    "RED_STORM",
    "SPIRIT",
    "SYSTEMS",
    "THUNDERBIRD",
    "LogSpec",
    "SystemSpec",
    "get_system",
]
