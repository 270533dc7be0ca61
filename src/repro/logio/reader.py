"""Streaming log readers: native on-disk formats back to records.

The inverse of :mod:`repro.logio.writer`: opens a (possibly gzipped) log
file and lazily parses each line with the system's format parser in
tolerant mode, so a damaged file reads completely with corrupted records
flagged rather than raising mid-stream.

:func:`read_log` returns a :class:`LogReader`, a closeable iterator: the
file handle is released deterministically when the stream is exhausted,
when :meth:`LogReader.close` is called, or when the reader is used as a
context manager — not at whatever later point the garbage collector gets
around to a generator abandoned by an early ``break``.
"""

from __future__ import annotations

import gzip
import io
from itertools import chain
from pathlib import Path
from typing import Iterator, Union

from ..logmodel.bgl import parse_bgl_stream
from ..logmodel.record import LogRecord
from ..logmodel.redstorm import parse_redstorm_line
from ..logmodel.syslog import parse_syslog_stream

PathLike = Union[str, Path]


class _TolerantGzipFile(gzip.GzipFile):
    """A gzip file that may have been cut short (a copy interrupted, a
    disk filled).  ``read1``, which a ``TextIOWrapper`` reads through,
    ends the stream at the last byte gzip can recover instead of raising
    ``EOFError``, so a partial last line reaches the tolerant parser
    like any other damaged line."""

    def read1(self, size=-1):
        try:
            return super().read1(size)
        except EOFError:
            return b""


def _open_text(path: Path):
    if path.suffix == ".gz":
        return io.TextIOWrapper(
            _TolerantGzipFile(path, "rb"), encoding="utf-8", errors="replace"
        )
    return open(path, "rt", encoding="utf-8", errors="replace")


def _parse_redstorm_records(lines, year: int) -> Iterator[LogRecord]:
    previous = None
    current_year = year
    for line in lines:
        if not line.strip():
            continue
        record = parse_redstorm_line(line, current_year)
        # BSD-syslog lines carry no year: detect rollover the way
        # syslog daemons do (a >half-year backwards jump).
        if (
            previous is not None
            and not record.corrupted
            and previous - record.timestamp > 182 * 86400.0
        ):
            current_year += 1
            record = parse_redstorm_line(line, current_year)
        if not record.corrupted:
            previous = record.timestamp
        yield record


def _parse_records(handle, system: str, year: int) -> Iterator[LogRecord]:
    """The system's stream parser over ``handle``'s lines: the generator
    itself, so a consumer pulls from it with no frame in between."""
    if system == "bgl":
        return parse_bgl_stream(handle)
    if system == "redstorm":
        return _parse_redstorm_records(handle, year)
    return parse_syslog_stream(handle, year, system=system)


class LogReader:
    """Closeable record iterator over one native-format log file.

    Iterating yields :class:`~repro.logmodel.record.LogRecord` objects.
    The underlying file handle is closed as soon as the last record is
    yielded; a consumer that stops early (``break``, an exception, an
    ``islice``) should call :meth:`close` or use the reader as a context
    manager — otherwise the handle lives as long as the stream does.

    ``iter(reader)`` is the one stream ``next(reader)`` also draws from,
    and it is a C-level iterator that owns what it needs (it outlives a
    temporary ``for record in read_log(...)`` reader): a driver's
    ``islice`` pulls records without a Python call per record.  Records
    are parsed strictly on demand: nothing is read ahead of the consumer.
    """

    def __init__(self, path: PathLike, system: str, year: int = 2005):
        self.path = Path(path)
        self.system = system
        self._handle = _open_text(self.path)
        self._source = _parse_records(self._handle, system, year)
        # Past the last record the chain pulls from an iterator whose one
        # step closes the handle (``close()`` returns the sentinel).
        self._records = chain(self._source, iter(self._handle.close, None))

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __iter__(self) -> Iterator[LogRecord]:
        return self._records

    def __next__(self) -> LogRecord:
        return next(self._records)

    def close(self) -> None:
        """Stop the stream and release the file handle; idempotent."""
        self._source.close()
        self._handle.close()

    def __enter__(self) -> "LogReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_log(path: PathLike, system: str, year: int = 2005) -> LogReader:
    """Lazily parse a native-format log file into records.

    ``year`` seeds the syslog timestamp parser (BSD syslog carries no
    year; the stream parser handles rollover when a log spans New Year).
    BG/L lines carry full dates and ignore it.

    Returns a :class:`LogReader`; see there for handle-lifetime
    semantics.
    """
    return LogReader(path, system, year=year)


def count_lines(path: PathLike) -> int:
    """Number of non-blank lines in a (possibly gzipped) log file."""
    path = Path(path)
    count = 0
    with _open_text(path) as handle:
        for line in handle:
            if line.strip():
                count += 1
    return count
