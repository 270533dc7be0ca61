"""Process-pool sharded tagging with crash supervision.

The tagger is the pipeline's hot path and embarrassingly parallel: rule
matching touches one record at a time, and Liang et al. [DSN'05] filter
per-node partitions independently, which licenses tagging shards of the
stream in any order as long as the *filter* still consumes them in
stream order.  :class:`ShardedTagger` implements exactly that split:
record batches fan out to ``N`` worker processes, each of which compiled
the ruleset once at startup, and the parent collects the futures in
submission order for the single sequential Algorithm 3.1 consumer.

Both sharding drivers (:class:`~repro.engine.drivers.ShardedDriver`, and
:class:`~repro.engine.drivers.BoundedDriver` when a bounded run shards)
call :meth:`ShardedTagger.tag_batches`, so the ordering and crash-replay
guarantees live in one place.

Crash handling follows the supervisor doctrine of
:mod:`repro.resilience`: a worker that dies mid-batch (OOM killer,
segfaulting regex engine, injected test fault) produced **no** output
for that batch — outcomes exist only once a future resolves — so the
parent replays the batch *exactly once* through an in-parent serial
:class:`~repro.core.tagging.Tagger`, duplicate-free by construction and
audited by :class:`ShardStats`.
"""

from __future__ import annotations

import os
from array import array
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from multiprocessing import get_context
from typing import Deque, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.categories import Alert
from ..core.tagging import BatchOutcome, RulesetHandle, Tagger
from ..logmodel.record import LogRecord, full_texts
from .config import ParallelConfig, default_mp_context

#: Record body the test-fault hook recognizes: a worker that sees it dies
#: mid-batch via ``os._exit``, modeling a hard crash (no cleanup, no
#: partial output).  Inert unless ``ParallelConfig.enable_test_faults``.
KILL_SENTINEL = "__REPRO_KILL_WORKER__"

#: The sentinel as it appears in a facility-prefixed match text (the
#: worker sees texts, not records, since the byte-buffer boundary).
_KILL_TEXT_SUFFIX = f": {KILL_SENTINEL}"


@dataclass
class ShardStats:
    """Exact accounting for one sharded tagging run."""

    workers: int = 0
    batches: int = 0
    records: int = 0
    alerts: int = 0
    worker_crashes: int = 0      # worker pools found broken
    batches_retried: int = 0     # batches replayed serially in-parent

    def summary_line(self) -> str:
        text = (
            f"parallel:          {self.workers} workers, "
            f"{self.batches:,} batches"
        )
        if self.worker_crashes:
            text += (
                f", {self.worker_crashes} worker crash(es), "
                f"{self.batches_retried} batch(es) retried serially"
            )
        return text


# ---------------------------------------------------------------------------
# The byte-buffer boundary.
#
# Rather than pickling per-record LogRecord objects, the boundary ships
# one length-prefixed byte buffer per batch: the UTF-8 bytes of every
# record's match text, concatenated, preceded by an array of per-text
# character lengths.  The worker decodes the blob once, slices texts by
# length, and returns only compact ``(position, rule_index)`` hits — the
# parent rebuilds Alert objects from the records it already holds, so
# nothing heavyweight crosses the process boundary in either direction.
#
# A record whose match text is not a string (a corrupt non-str body with
# no facility prefix) cannot travel as text; its batch is tagged whole by
# the serial Tagger of crash replay, with the strict path's error reprs.
# ---------------------------------------------------------------------------

_LENGTH_TYPECODE = "I"


def _encode_texts(texts: Sequence[str]) -> Tuple[bytes, bytes]:
    """One batch's texts as (length-prefix array bytes, UTF-8 blob).

    Lengths are in *characters*: the worker decodes the whole blob once
    (UTF-8 is stateless, so the concatenated decode equals per-text
    decodes) and slices the string, which is far cheaper than decoding
    per text.  ``surrogatepass`` round-trips lone surrogates that
    corruption (or a property-based test) may have planted in a body.
    """
    lens = array(_LENGTH_TYPECODE, map(len, texts))
    blob = "".join(texts).encode("utf-8", "surrogatepass")
    return lens.tobytes(), blob


# Worker-process side.  Module-level state: each worker compiles the
# ruleset exactly once (the initializer), then tags batches forever.

_WORKER_TAGGER: Optional[Tagger] = None
_WORKER_TEST_FAULTS = False


def _init_worker(handle: RulesetHandle, enable_test_faults: bool) -> None:
    global _WORKER_TAGGER, _WORKER_TEST_FAULTS
    _WORKER_TAGGER = handle.tagger()
    _WORKER_TEST_FAULTS = enable_test_faults


#: Compact wire form of one batch's outcome: (size, ((pos, rule), ...),
#: ((pos, error_repr), ...)).  Rule indices instead of Alert objects.
_RawOutcome = Tuple[int, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, str], ...]]


def _tag_text_batch(
    index: int, lens_bytes: bytes, blob: bytes
) -> Tuple[int, _RawOutcome]:
    assert _WORKER_TAGGER is not None, "worker initializer did not run"
    lens = array(_LENGTH_TYPECODE)
    lens.frombytes(lens_bytes)
    decoded = blob.decode("utf-8", "surrogatepass")
    match_index = _WORKER_TAGGER._fast.match_index
    hits: List[Tuple[int, int]] = []
    errors: List[Tuple[int, str]] = []
    pos = 0
    if _WORKER_TEST_FAULTS:
        probe = 0
        for length in lens:
            text = decoded[probe:probe + length]
            probe += length
            if text == KILL_SENTINEL or text.endswith(_KILL_TEXT_SUFFIX):
                # A hard mid-batch death: no exception travels back, the
                # parent sees only a broken pool.
                os._exit(17)
    for i, length in enumerate(lens):
        text = decoded[pos:pos + length]
        pos += length
        try:
            rule = match_index(text)
        except Exception as exc:  # pragma: no cover - str input never raises
            errors.append((i, repr(exc)))
            continue
        if rule is not None:
            hits.append((i, rule))
    return index, (len(lens), tuple(hits), tuple(errors))


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------

#: One in-flight batch: records, pool (``None`` if tagged here), future or outcome.
_Entry = Tuple[Sequence[LogRecord], Optional[ProcessPoolExecutor],
               Union[Future, BatchOutcome]]


class ShardedTagger:
    """Fan record batches out to worker processes; collect them in order.

    Parameters
    ----------
    ruleset:
        A registered system short name or a
        :class:`~repro.core.tagging.RulesetHandle`.  Only named system
        rulesets can cross the process boundary (compiled patterns and
        body factories do not pickle).
    config:
        The :class:`~repro.parallel.config.ParallelConfig` knobs.

    Use as a context manager (or call :meth:`close`); the pool starts on
    first use and serves every later :meth:`tag_batches` call.
    """

    def __init__(
        self,
        ruleset: Union[str, RulesetHandle],
        config: Optional[ParallelConfig] = None,
    ):
        self.handle = (
            ruleset if isinstance(ruleset, RulesetHandle)
            else RulesetHandle(ruleset)
        )
        # Fail fast on unknown systems; the rule order of the resolved
        # ruleset doubles as the wire contract (workers return indices
        # into this tuple).
        self._categories = tuple(self.handle.resolve().categories)
        self.config = config or ParallelConfig()
        self.stats = ShardStats(workers=self.config.resolved_workers())
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("ShardedTagger is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.resolved_workers(),
                mp_context=get_context(default_mp_context()),
                initializer=_init_worker,
                initargs=(self.handle, self.config.enable_test_faults),
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._closed = True

    def __enter__(self) -> "ShardedTagger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the pipeline ------------------------------------------------------

    def tag_batches(
        self, batches: Iterable[Sequence[LogRecord]]
    ) -> Iterator[Tuple[Sequence[LogRecord], BatchOutcome]]:
        """Tag batches in parallel; yield ``(records, outcome)`` pairs in
        the exact order the batches were submitted.

        Batches wait in one FIFO, so collecting the oldest future *is*
        the order-preserving merge; at most ``resolved_inflight()`` are
        submitted-but-unyielded at once, which bounds parent memory.  A
        batch the pool cannot take — a text that cannot ship, or a pool
        a worker death broke — is tagged whole in the parent.
        """
        window = self.config.resolved_inflight()
        pending: Deque[_Entry] = deque()
        for records in batches:
            self.stats.batches += 1
            self.stats.records += len(records)
            pending.append(self._submit(records))
            if len(pending) == window:
                yield self._collect(*pending.popleft())
        while pending:
            yield self._collect(*pending.popleft())

    def _submit(self, records: Sequence[LogRecord]) -> _Entry:
        try:
            lens_bytes, blob = _encode_texts(full_texts(records))
        except TypeError:  # a non-str text cannot ship; tag the batch here
            return records, None, self._serial_tagger.tag_batch(records)
        pool = self._ensure_pool()
        try:
            future = pool.submit(_tag_text_batch, self.stats.batches,
                                 lens_bytes, blob)
        except BrokenProcessPool:
            return records, None, self._replay(pool, records)
        return records, pool, future

    def _collect(
        self, records: Sequence[LogRecord], pool, job
    ) -> Tuple[Sequence[LogRecord], BatchOutcome]:
        outcome = job
        if pool is not None:
            try:
                _index, raw = job.result()
            except BrokenProcessPool:
                outcome = self._replay(pool, records)
            else:
                outcome = self._rebuild_outcome(records, raw)
        self.stats.alerts += len(outcome.hits)
        return records, outcome

    # -- crash supervision -------------------------------------------------

    @cached_property
    def _serial_tagger(self) -> Tagger:
        return self.handle.tagger()

    def _replay(self, pool, records: Sequence[LogRecord]) -> BatchOutcome:
        """The exactly-once replay of a batch a worker death took down.

        Every future of a broken pool fails, so the first failure seen
        counts the crash and discards the pool; a fresh one serves the
        next submission.  A replayed batch is never resubmitted.
        """
        if pool is self._pool:
            self.stats.worker_crashes += 1
            self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
        self.stats.batches_retried += 1
        return self._serial_tagger.tag_batch(records)

    def _rebuild_outcome(self, records, raw: _RawOutcome) -> BatchOutcome:
        """Expand a worker's compact ``(pos, rule)`` outcome back into
        the :class:`BatchOutcome` contract, building Alert objects from
        the records the parent already holds."""
        _size, raw_hits, raw_errors = raw
        categories = self._categories
        hits = tuple(
            (i, Alert.from_record(records[i], categories[rule]))
            for i, rule in raw_hits
        )
        return BatchOutcome(size=len(records), hits=hits, errors=raw_errors)

    def tag_stream(
        self, records: Iterable[LogRecord], dead_letters=None
    ) -> Iterator[Alert]:
        """Drop-in parallel equivalent of :meth:`Tagger.tag_stream`.

        Yields alerts in original stream order.  Per-record failures go
        to ``dead_letters`` (reason ``"tagger-error"``) when attached,
        else re-raise in the parent as :class:`TaggerErrorReplay` —
        matching the serial contract that a bare stream is strict.
        """
        from ..resilience.deadletter import REASON_TAGGER_ERROR

        batches = chunked(records, self.config.batch_size)
        for batch, outcome in self.tag_batches(batches):
            errors = outcome.error_map()
            hits = outcome.hit_map()
            for i in range(outcome.size):
                if i in errors:
                    if dead_letters is None:
                        raise TaggerErrorReplay(errors[i])
                    dead_letters.put(batch[i], REASON_TAGGER_ERROR, errors[i])
                    continue
                alert = hits.get(i)
                if alert is not None:
                    yield alert


class TaggerErrorReplay(RuntimeError):
    """A record crashed the rules engine inside a worker process.

    The original exception object cannot cross the process boundary
    reliably, so the parent re-raises its ``repr`` — same strictness as
    the serial path, different exception type.
    """


def chunked(
    records: Iterable[LogRecord], size: int
) -> Iterator[List[LogRecord]]:
    """Split a record stream into lists of at most ``size`` records."""
    if size < 1:
        raise ValueError("batch size must be at least 1")
    source = iter(records)
    batch = list(islice(source, size))
    while batch:
        yield batch
        batch = list(islice(source, size))


__all__ = [
    "KILL_SENTINEL",
    "ShardStats",
    "ShardedTagger",
    "TaggerErrorReplay",
    "chunked",
]
