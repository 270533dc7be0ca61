"""Process-pool sharded tagging with crash supervision.

The tagger is the pipeline's hot path and embarrassingly parallel: rule
matching touches one record at a time, and Liang et al. [DSN'05] filter
per-node partitions independently, which licenses tagging shards of the
stream in any order as long as the *filter* still consumes the reassembled
stream sequentially.  :class:`ShardedTagger` implements exactly that
split: record batches fan out to ``N`` worker processes, each of which
compiled the ruleset once at startup, and an :class:`~repro.parallel.
merge.OrderedMerge` reassembles outcomes into submission order for the
single sequential Algorithm 3.1 consumer.

Since the stage-engine refactor, :class:`ShardedTagger` is the machinery
behind two execution drivers
(:class:`~repro.engine.drivers.ShardedDriver`, and
:class:`~repro.engine.drivers.BoundedDriver` when a bounded run also
shards): the drivers own admission/stats/severity/filter scheduling and
call :meth:`ShardedTagger.tag_batches` for the fan-out/merge cycle, so
the pool's ordering and crash-retry guarantees are shared rather than
reimplemented per loop.

Crash handling follows the supervisor doctrine of
:mod:`repro.resilience`: a worker process that dies mid-batch (OOM
killer, segfaulting regex engine, injected test fault) produced **no**
output for that batch — outcomes only exist once a future resolves — so
the parent replays the batch *exactly once* through an in-parent serial
:class:`~repro.core.tagging.Tagger` built from the same ruleset handle.
Replay-once is therefore duplicate-free by construction, and the
:class:`ShardStats` accounting makes the claim auditable.
"""

from __future__ import annotations

import os
from array import array
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.categories import Alert
from ..core.tagging import BatchOutcome, RulesetHandle, Tagger
from ..logmodel.record import LogRecord, full_texts
from .config import ParallelConfig, default_mp_context
from .merge import OrderedMerge

#: Record body the test-fault hook recognizes: a worker that sees it dies
#: mid-batch via ``os._exit``, modeling a hard crash (no cleanup, no
#: partial output).  Inert unless ``ParallelConfig.enable_test_faults``.
KILL_SENTINEL = "__REPRO_KILL_WORKER__"

#: The sentinel as it appears in a facility-prefixed match text (the
#: worker sees texts, not records, since the byte-buffer boundary).
_KILL_TEXT_SUFFIX = f": {KILL_SENTINEL}"


class WorkerCrashError(RuntimeError):
    """A worker process died and batch retry was disabled (or failed)."""

    def __init__(self, batch_index: int, detail: str):
        super().__init__(
            f"worker process died while tagging batch {batch_index}: {detail}"
        )
        self.batch_index = batch_index


@dataclass
class ShardStats:
    """Exact accounting for one sharded tagging run."""

    workers: int = 0
    batches: int = 0
    records: int = 0
    alerts: int = 0
    worker_crashes: int = 0      # pool breakages observed
    batches_retried: int = 0     # batches replayed serially in-parent
    pools_recreated: int = 0
    merge_peak: int = 0          # peak batches buffered by the merge

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
# Pickling per-record LogRecord objects was the dominant cost of the
# sharded schedule (~2.6 us/record each way — more than the entire
# serial per-record budget).  The boundary now ships one length-prefixed
# byte buffer per batch: the UTF-8 bytes of every record's match text,
# concatenated, preceded by an array of per-text character lengths.  The
# worker decodes the blob once, slices texts by length, and returns only
# compact ``(position, rule_index)`` hits — the parent rebuilds Alert
# objects from the records it already holds, so nothing heavyweight
# crosses the process boundary in either direction.
#
# Records whose match text is not a string (corrupt non-str bodies with
# no facility prefix) cannot travel as text; the parent resolves those
# locally through the same serial Tagger used for crash replay, which
# reproduces the strict path's exception reprs exactly.
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


@dataclass
class _Inflight:
    """Bookkeeping for one submitted batch until its outcome lands."""

    index: int
    records: Sequence[LogRecord]
    #: Locally-resolved entries for records whose text could not ship:
    #: ``(position, alert_or_None, error_repr_or_None)``.
    local: Optional[List[Tuple[int, Optional[Alert], Optional[str]]]] = None
    #: Original position of each shipped text when some records stayed
    #: local; ``None`` means the identity mapping (the common case).
    shipped_map: Optional[List[int]] = None
    retried: bool = False


class ShardedTagger:
    """Fan record batches out to worker processes; merge outcomes in order.

    Parameters
    ----------
    ruleset:
        A registered system short name or a
        :class:`~repro.core.tagging.RulesetHandle`.  Only named system
        rulesets can cross the process boundary (compiled patterns and
        body factories do not pickle).
    config:
        The :class:`~repro.parallel.config.ParallelConfig` knobs.

    Use as a context manager (or call :meth:`close`); the pool is created
    lazily on first use and survives across multiple :meth:`tag_batches`
    calls, so property-based tests can amortize pool startup.
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
        self._fallback: Optional[Tagger] = None
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

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self.stats.pools_recreated += 1

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._closed = True

    def __enter__(self) -> "ShardedTagger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- crash supervision -------------------------------------------------

    def _serial_tagger(self) -> Tagger:
        if self._fallback is None:
            self._fallback = self.handle.tagger()
        return self._fallback

    def _retry_serially(self, task: _Inflight, detail: str) -> BatchOutcome:
        """The exactly-once replay path for a batch whose worker died."""
        if not self.config.retry_failed_batches or task.retried:
            raise WorkerCrashError(task.index, detail)
        task.retried = True
        self.stats.batches_retried += 1
        return self._serial_tagger().tag_batch(task.records)

    # -- the boundary ------------------------------------------------------

    def _prepare_payload(self, task: _Inflight) -> Tuple[bytes, bytes]:
        """Encode one batch for the wire, resolving locally the records
        whose match text cannot travel as text (non-str bodies with no
        facility prefix — the strict path's ``TypeError`` cases).  Local
        resolution uses the same serial tagger as crash replay, so the
        error reprs are byte-identical to the serial schedule's."""
        records = task.records
        texts = full_texts(records)
        try:
            return _encode_texts(texts)
        except TypeError:
            pass
        tagger = self._serial_tagger()
        local: List[Tuple[int, Optional[Alert], Optional[str]]] = []
        shipped_map: List[int] = []
        shipped: List[str] = []
        for i, text in enumerate(texts):
            if isinstance(text, str):
                shipped_map.append(i)
                shipped.append(text)
                continue
            try:
                alert = tagger.tag(records[i])
            except Exception as exc:
                local.append((i, None, repr(exc)))
            else:
                if alert is not None:  # pragma: no cover - non-str always raises
                    local.append((i, alert, None))
        task.local = local
        task.shipped_map = shipped_map
        return _encode_texts(shipped)

    def _rebuild_outcome(self, task: _Inflight, raw: _RawOutcome) -> BatchOutcome:
        """Expand a worker's compact ``(pos, rule)`` outcome back into
        the :class:`BatchOutcome` contract, building Alert objects from
        the records the parent already holds."""
        _size, raw_hits, raw_errors = raw
        records = task.records
        categories = self._categories
        shipped_map = task.shipped_map
        if shipped_map is None:
            hits = tuple(
                (i, Alert.from_record(records[i], categories[rule]))
                for i, rule in raw_hits
            )
            return BatchOutcome(
                size=len(records), hits=hits, errors=tuple(raw_errors)
            )
        entries: List[Tuple[int, Optional[Alert], Optional[str]]] = [
            (
                shipped_map[i],
                Alert.from_record(records[shipped_map[i]], categories[rule]),
                None,
            )
            for i, rule in raw_hits
        ]
        entries.extend((shipped_map[i], None, err) for i, err in raw_errors)
        entries.extend(task.local or ())
        entries.sort(key=lambda entry: entry[0])
        return BatchOutcome(
            size=len(records),
            hits=tuple((i, alert) for i, alert, _err in entries
                       if alert is not None),
            errors=tuple((i, err) for i, _alert, err in entries
                         if err is not None),
        )

    # -- the pipeline ------------------------------------------------------

    def tag_batches(
        self, batches: Iterable[Sequence[LogRecord]]
    ) -> Iterator[Tuple[Sequence[LogRecord], BatchOutcome]]:
        """Tag batches in parallel; yield ``(records, outcome)`` pairs in
        the exact order the batches were submitted.

        At most ``resolved_inflight()`` batches are submitted-but-unyielded
        at any moment, which bounds parent memory and the merge window.
        A broken worker pool fails every in-flight future; each affected
        batch is replayed serially exactly once (see
        :meth:`_retry_serially`) and the pool is rebuilt before new
        submissions.
        """
        source = iter(batches)
        window = self.config.resolved_inflight()
        merge = OrderedMerge(window)
        inflight: Dict[object, _Inflight] = {}
        by_index: Dict[int, Sequence[LogRecord]] = {}
        next_index = 0
        next_yield = 0
        exhausted = False

        def submit(task: _Inflight) -> None:
            """Submit one batch, absorbing a pool that broke since the
            last round: the batch replays serially (exactly once) and a
            fresh pool serves the next submission."""
            lens_bytes, blob = self._prepare_payload(task)
            try:
                future = self._ensure_pool().submit(
                    _tag_text_batch, task.index, lens_bytes, blob
                )
            except BrokenProcessPool as exc:
                self.stats.worker_crashes += 1
                self._discard_pool()
                merge.add(task.index, self._retry_serially(task, repr(exc)))
                return
            inflight[future] = task

        while True:
            # Keep the pool fed, bounded by the in-flight window (which
            # also bounds the merge: inflight + buffered <= window).
            while not exhausted and len(inflight) + len(merge) < window:
                try:
                    records = next(source)
                except StopIteration:
                    exhausted = True
                    break
                task = _Inflight(index=next_index, records=records)
                by_index[next_index] = records
                next_index += 1
                self.stats.batches += 1
                self.stats.records += len(records)
                submit(task)

            if not inflight and not merge and exhausted:
                break

            if inflight:
                done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    task = inflight.pop(future)
                    try:
                        index, raw = future.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        self.stats.worker_crashes += 1
                        merge.add(
                            task.index, self._retry_serially(task, repr(exc))
                        )
                        continue
                    merge.add(index, self._rebuild_outcome(task, raw))
                if broken:
                    # The pool is poisoned: the executor fails every
                    # sibling future too.  Collect each one — normal
                    # result if it finished before the breakage, serial
                    # replay otherwise — then rebuild the pool.
                    for future, task in list(inflight.items()):
                        del inflight[future]
                        try:
                            index, raw = future.result()
                        except BrokenProcessPool as exc:
                            merge.add(
                                task.index,
                                self._retry_serially(task, repr(exc)),
                            )
                        else:
                            merge.add(index, self._rebuild_outcome(task, raw))
                    self._discard_pool()

            for outcome in merge.drain():
                records = by_index.pop(next_yield)
                next_yield += 1
                self.stats.alerts += len(outcome.hits)
                yield records, outcome

        merge.assert_empty()
        if self.stats.merge_peak < merge.peak_occupancy:
            self.stats.merge_peak = merge.peak_occupancy

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

        for batch, outcome in self.tag_batches(
            chunked(records, self.config.batch_size)
        ):
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
    batch: List[LogRecord] = []
    for record in records:
        batch.append(record)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


__all__ = [
    "KILL_SENTINEL",
    "ShardStats",
    "ShardedTagger",
    "TaggerErrorReplay",
    "WorkerCrashError",
    "chunked",
]
