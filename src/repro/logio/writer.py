"""Streaming log writers: records to native on-disk formats.

Each machine's log is written the way its collector stored it
(Section 3.1): BSD syslog lines for Thunderbird/Spirit/Liberty,
severity-bearing syslog and RAS event lines for Red Storm, RAS-database
export lines for BG/L.  Writers are streaming — a record in, a line out —
so full-scale generation never holds a log in memory.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Callable, Iterable, Union

from ..logmodel.dialects import DIALECTS
from ..logmodel.record import LogRecord

PathLike = Union[str, Path]


def renderer_for(system: str) -> Callable[[LogRecord], str]:
    """The line renderer for a system's native format (its row in the
    dialect table)."""
    return DIALECTS[system].render


def write_log(
    records: Iterable[LogRecord],
    path: PathLike,
    system: str,
    compress: bool = False,
) -> int:
    """Write records to ``path`` in the system's native format.

    Returns the number of lines written.  With ``compress=True`` the file
    is gzip-compressed (the paper's Table 2 reports both raw and
    gzip-compressed sizes).
    """
    render = renderer_for(system)
    path = Path(path)
    opener = gzip.open if compress else open
    count = 0
    with opener(path, "wt", encoding="utf-8", errors="replace") as handle:
        for record in records:
            handle.write(render(record))
            handle.write("\n")
            count += 1
    return count


def render_lines(records: Iterable[LogRecord], system: str) -> Iterable[str]:
    """Lazily render records to native-format lines (no newlines)."""
    render = renderer_for(system)
    for record in records:
        yield render(record)


def log_bytes(records: Iterable[LogRecord], system: str) -> int:
    """Total byte size of the rendered log without touching disk."""
    render = renderer_for(system)
    return sum(len(render(record).encode("utf-8", "replace")) + 1 for record in records)


def compressed_ratio(sample_lines: Iterable[str]) -> float:
    """gzip compression ratio (compressed / raw) of a line sample.

    Table 2 shows logs compress 5-25x; a ratio from a sample extrapolates
    the compressed-size column without writing the full log.
    """
    raw = "\n".join(sample_lines).encode("utf-8", "replace")
    if not raw:
        return 1.0
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb") as handle:
        handle.write(raw)
    return len(buffer.getvalue()) / len(raw)
