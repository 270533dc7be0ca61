"""Log-volume statistics: the size/rate/compression columns of Table 2.

One pass over a record stream accumulates everything Table 2 reports per
log: message count, raw byte size (each line as read), gzip-compressed
size, observation span, and bytes/second.

A parsed record carries the line it was read from (``record.raw``), so
the size columns measure the log's own bytes, and no line is rendered
again.  A record that was never read — generated, anonymized, re-stamped
by a fault injector, replayed from a store — is rendered in its
system's native format instead.
"""

from __future__ import annotations

import os
import threading
import zlib
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

from ..logmodel.record import LogRecord
from .writer import renderer_for

#: Table 2's compressed column: gzip's default level.
GZIP_DEFAULT_LEVEL = 6

#: Measured bytes a collector gathers before handing them to deflate as
#: one block.
BLOCK_BYTES = 64 * 1024


@dataclass
class LogStats:
    """Accumulated volume statistics for one log.

    ``raw_bytes`` counts each line as read, UTF-8 encoded with its
    newline; for a UTF-8, newline-terminated log with no blank lines that
    is the file's (gunzipped) size.  ``compressed_bytes`` is those bytes
    through one zlib level-6 stream.  A corrupted record's stamp (``0.0``
    on a line with none) never moves the span.
    """

    system: str
    messages: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0
    first_timestamp: Optional[float] = None
    last_timestamp: Optional[float] = None

    @property
    def span_seconds(self) -> float:
        if self.first_timestamp is None or self.last_timestamp is None:
            return 0.0
        return self.last_timestamp - self.first_timestamp

    @property
    def days(self) -> float:
        return self.span_seconds / 86400.0

    @property
    def rate_bytes_per_second(self) -> float:
        span = self.span_seconds
        return self.raw_bytes / span if span > 0 else 0.0

    @property
    def size_gb(self) -> float:
        return self.raw_bytes / 1e9

    @property
    def compressed_gb(self) -> float:
        return self.compressed_bytes / 1e9

    @property
    def compression_ratio(self) -> float:
        return self.compressed_bytes / self.raw_bytes if self.raw_bytes else 1.0


@dataclass(frozen=True)
class StatsSnapshot:
    """Resumable mid-stream state of a :class:`StatsCollector`.

    The zlib compressor object is captured via ``compressobj.copy()`` so a
    resumed collector produces byte-identical compressed sizes to an
    uninterrupted run.  The stored compressor is never mutated: every
    restore copies it again, so one snapshot supports many resumes.

    A live compressor cannot be pickled, so pickling a snapshot stores
    ``compressor=None`` (the one rule for crossing a process boundary,
    here in ``__getstate__``).  The durable codec,
    :mod:`repro.resilience.wire`, lists this class in its allowed
    ``STATE_TYPES`` and relies on ``fed_bytes`` — the exact count of
    bytes the compressor had been fed — to rebuild equivalent state:
    deflate's cumulative output depends only on the byte sequence fed,
    not its chunking (the engine equivalence tests pin this), so
    replaying the resumed stream's observed prefix through a fresh
    compressor via :meth:`StatsCollector.replay_record` lands on
    byte-identical compressed sizes.
    """

    stats: LogStats
    compressor: Optional["zlib._Compress"]
    flushed: bool
    #: Total bytes fed to the compressor when the snapshot was taken.
    fed_bytes: int = 0
    #: Coarse mode (overload degradation) at snapshot time, so a resumed
    #: run stays degraded.
    coarse: bool = False

    def __getstate__(self) -> dict:
        return {**self.__dict__, "compressor": None}


class StatsCollector:
    """Streaming Table 2 accumulator.

    Wrap a record stream with :meth:`observe`; statistics are live on
    :attr:`stats` as the stream is consumed, except ``compressed_bytes``,
    which is exact at :meth:`snapshot` and :meth:`finish`.  Compression
    is measured with a true incremental zlib stream (gzip's codec)
    rather than per-line compression, so the ratio matches what ``gzip``
    on the whole file achieves.

    Deflate is most of what a collector costs (``bench/``'s
    ``logio.stats_us_per_rec`` was ~1.5 us per Liberty record, ~1.1 of
    it deflate), and zlib releases the GIL while it compresses.  So the
    measured bytes gather in a pending buffer, and each time that
    reaches :data:`BLOCK_BYTES` it goes to the compressor as one block
    (a batch bigger than that is one block) on a short-lived helper
    thread, while the caller goes on parsing, tagging and filtering.
    At most one block is in flight: the next block, :meth:`snapshot`
    and :meth:`finish` settle it (join the thread, count its output,
    re-raise what it raised), and the last two also compress what is
    still pending.  Deflate's output depends only on the byte sequence
    fed, not its chunking, so every settled count, ``fed_bytes`` and
    snapshot compressor are those of a collector that compresses each
    record as it comes.  The helper runs only when the calling thread
    may use two CPUs (:func:`_two_cpus`); on one it would only take
    turns with its caller, so the block is compressed inline.  A worker
    pool forked while a block is in flight is unaffected: the helper
    touches only its own block and this collector's compressor, and no
    worker uses either.
    """

    def __init__(self, system: str):
        self.stats = LogStats(system=system)
        self._render = renderer_for(system)
        self._compressor = zlib.compressobj(GZIP_DEFAULT_LEVEL)
        self._flushed = False
        #: Measured bytes not yet handed to the compressor, and whether
        #: they count towards ``compressed_bytes`` (a durable resume's
        #: replayed prefix does not; a block never mixes the two).
        self._pending = bytearray()
        self._pending_counted = True
        #: The block being compressed on the helper thread:
        #: ``(thread, result, counted)``, ``result`` receiving the
        #: output's length or the exception raised.
        self._inflight: Optional[tuple] = None
        #: Bytes measured for the compressor so far, pending ones
        #: included (the durable-resume watermark), and how many of them
        #: a durable resume still owes the rebuilt compressor via
        #: :meth:`replay_record`.
        self._fed = 0
        self._replay_pending = 0
        #: Latched when a durable resume's replayed prefix did not line
        #: up with the watermark (a stream that shed or coarsened cannot
        #: be re-fed exactly); counts/sizes/span stay exact, only
        #: ``compressed_bytes`` for the remainder is best-effort.
        self.replay_mismatch = False
        #: Coarse mode (overload degradation): skip the compressed-size
        #: measurement, the expensive part of the per-record work.  The
        #: count/size/span columns stay exact; ``compressed_bytes`` covers
        #: only the records observed before coarsening.
        self.coarse = False

    def _bytes(self, records: Sequence[LogRecord]) -> bytes:
        """What Table 2 measures of ``records``: each one's line as read
        (``raw``), or rendered when it has none, newline-terminated and
        UTF-8 encoded."""
        render = self._render
        lines = [render(r) if r.raw is None else r.raw for r in records]
        lines.append("")  # trailing separator = final newline
        return "\n".join(lines).encode("utf-8", "replace")

    def _feed(self, data: bytes, counted: bool = True) -> None:
        """Queue ``data`` for the compressor; hand off a full block."""
        if self._pending and counted != self._pending_counted:
            self._dispatch()
        self._pending_counted = counted
        self._pending += data
        if len(self._pending) >= BLOCK_BYTES:
            self._dispatch()

    def _dispatch(self) -> None:
        """Compress the pending bytes as one block: on a helper thread
        when :func:`_two_cpus`, else inline.  The block in flight is
        settled first, so the compressor sees the bytes in order."""
        block, counted = self._pending, self._pending_counted
        self._pending = bytearray()
        self._settle()
        if _two_cpus():
            result: list = []
            thread = threading.Thread(
                target=_deflate,
                args=(self._compressor, block, result),
                name="stats-deflate",
                daemon=True,
            )
            thread.start()
            self._inflight = (thread, result, counted)
        else:
            out = len(self._compressor.compress(block))
            if counted:
                self.stats.compressed_bytes += out

    def _settle(self) -> None:
        """Wait for the block in flight, if any, and count its output;
        an exception the helper raised is raised here."""
        if self._inflight is None:
            return
        thread, result, counted = self._inflight
        self._inflight = None
        thread.join()
        (outcome,) = result
        if isinstance(outcome, BaseException):
            raise outcome
        if counted:
            self.stats.compressed_bytes += outcome

    def _drain(self) -> None:
        """Leave nothing in flight or pending: the compressor has been
        fed every measured byte and ``compressed_bytes`` is current."""
        if self._pending:
            self._dispatch()
        self._settle()

    def observe_record(self, record: LogRecord) -> None:
        """Accumulate one record (the per-record form of :meth:`observe`)."""
        data = self._bytes((record,))
        self.stats.messages += 1
        self.stats.raw_bytes += len(data)
        if not self.coarse:
            self._feed(data)
            self._fed += len(data)
        if not record.corrupted:
            stats = self.stats
            if stats.first_timestamp is None:
                stats.first_timestamp = record.timestamp
            if stats.last_timestamp is None or record.timestamp > stats.last_timestamp:
                stats.last_timestamp = record.timestamp

    def observe_batch(self, records: Sequence[LogRecord]) -> None:
        """Accumulate a whole batch with one join and one encode.

        Byte-identical to calling :meth:`observe_record` per record:
        UTF-8 is stateless, so encoding the concatenated lines equals
        concatenating per-line encodings, and the bytes join the same
        pending buffer in the same order (``tests/engine`` and
        ``tests/logio`` pin both the counts and the resumable state).
        The batch form exists because the per-record form pays a join
        and an encode per line; the deflate both feed runs beside the
        caller (see the class docstring).
        """
        if not records:
            return
        data = self._bytes(records)
        stats = self.stats
        stats.messages += len(records)
        stats.raw_bytes += len(data)
        if not self.coarse:
            self._feed(data)
            self._fed += len(data)
        stamps = [r.timestamp for r in records if not r.corrupted]
        if stamps:
            if stats.first_timestamp is None:
                stats.first_timestamp = stamps[0]
            peak = max(stamps)
            if stats.last_timestamp is None or peak > stats.last_timestamp:
                stats.last_timestamp = peak

    def observe(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        for record in records:
            self.observe_record(record)
            yield record
        self.finish()

    def finish(self) -> LogStats:
        """Flush the compressor and return the final statistics."""
        if not self._flushed:
            self._drain()
            self.stats.compressed_bytes += len(self._compressor.flush())
            self._flushed = True
        return self.stats

    def snapshot(self) -> StatsSnapshot:
        """Capture resumable mid-stream state (see :class:`StatsSnapshot`)."""
        self._drain()
        return StatsSnapshot(
            stats=replace(self.stats),
            compressor=self._compressor.copy(),
            flushed=self._flushed,
            fed_bytes=self._fed,
            coarse=self.coarse,
        )

    @classmethod
    def from_snapshot(cls, snapshot: StatsSnapshot) -> "StatsCollector":
        """A live collector continuing exactly from ``snapshot``.

        When the snapshot crossed a process boundary its compressor is
        gone (``None``); the collector starts a fresh one and owes it the
        ``fed_bytes`` watermark of replayed prefix bytes — the resuming
        driver pays that debt by calling :meth:`replay_record` for each
        observed record of the skipped prefix before feeding new ones.
        """
        collector = cls(snapshot.stats.system)
        collector.stats = replace(snapshot.stats)
        collector._flushed = snapshot.flushed
        collector._fed = snapshot.fed_bytes
        collector.coarse = snapshot.coarse
        if snapshot.compressor is not None:
            collector._compressor = snapshot.compressor.copy()
        else:
            collector._replay_pending = snapshot.fed_bytes
        return collector

    @property
    def pending_replay_bytes(self) -> int:
        """Prefix bytes a durable resume still owes :meth:`replay_record`."""
        return self._replay_pending

    def replay_record(self, record: LogRecord) -> None:
        """Re-feed one skipped-prefix record into the rebuilt compressor.

        The compressed output these bytes produce was already counted
        when the record was first observed, so only the compressor state
        advances — ``stats`` does not move.  Overshooting the watermark
        (a prefix that cannot be reconstructed exactly, e.g. a run that
        shed records) latches :attr:`replay_mismatch` instead of
        corrupting the count.
        """
        if self._replay_pending <= 0:
            return
        data = self._bytes((record,))
        if len(data) > self._replay_pending:
            self.replay_mismatch = True
            self._replay_pending = 0
            return
        self._feed(data, counted=False)
        self._replay_pending -= len(data)


def _two_cpus() -> bool:
    """Whether the calling thread may run on two CPUs or more, so a
    helper thread can deflate beside it."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _deflate(compressor, block: bytearray, result: list) -> None:
    """The helper thread's body: compress one block and put its output
    length, or the exception raised, in ``result``."""
    try:
        result.append(len(compressor.compress(block)))
    except Exception as exc:  # handed to the caller, raised at settle
        result.append(exc)
