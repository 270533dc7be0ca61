"""Execution drivers: serial, sharded-parallel, and bounded schedules.

A driver owns the *schedule* of one pipeline run — when each record
moves through the :class:`~repro.engine.path.AlertPath` — and nothing
else: the per-record semantics live entirely in the path, so every
driver produces the same observable output (the bounded drivers modulo
the documented shedding tolerance).  This is the piece that replaces the
three hand-forked loops the pipeline used to carry:

* :class:`SerialDriver` — in-process batches in stream order, the
  reference schedule;
* :class:`ShardedDriver` — tagging fans out to worker processes
  (:class:`~repro.parallel.sharded.ShardedTagger`); stats, severity,
  and the Algorithm 3.1 filter stay the single sequential consumer of
  the order-preserving merge;
* :class:`BoundedDriver` — one tick loop over one bounded ingest queue,
  with credit-based flow control and priority-aware load shedding at
  arrival, where each tick's arrivals are tagged once and the verdict
  rides the queue; give it a :class:`~repro.parallel.config.
  ParallelConfig` too and that one tag pass goes through the worker pool.

Checkpointing is orthogonal to all three: every driver accepts a
:class:`~repro.resilience.checkpoint.CheckpointManager` and snapshots at
its own consistency barrier — after any record (serial, which cuts its
batches there), at batch boundaries where no in-flight worker state
affects the path (sharded),
or at drained-queue barriers (bounded).  ``path.consumed`` is exact at
each barrier, so a resumed run of the *same* deterministic stream lands
byte-identical (bounded: within shedding tolerance).
"""

from __future__ import annotations

from collections import Counter, deque
from contextlib import nullcontext
from itertools import islice
from typing import Deque, Iterator, List, Optional, Protocol, runtime_checkable

from ..logmodel.record import LogRecord
from ..parallel.config import ParallelConfig
from ..parallel.sharded import ShardedTagger, chunked
from ..resilience.backpressure import (
    BackpressureConfig,
    CreditGate,
    OverloadMonitor,
    OverloadReport,
)
from ..resilience.checkpoint import CheckpointManager
from ..resilience.deadletter import DeadLetterQueue, REASON_SHED_OVERLOAD
from ..resilience.shedding import BoundedIngest, ShedAccounting
from .path import AlertPath


class DriverReport:
    """Driver-specific extras for the :class:`PipelineResult`."""

    def __init__(self, shard_stats=None, overload: Optional[OverloadReport] = None):
        self.shard_stats = shard_stats
        self.overload = overload


@runtime_checkable
class Driver(Protocol):
    """One execution schedule for an :class:`AlertPath`."""

    name: str

    def run(
        self,
        source: Iterator[LogRecord],
        path: AlertPath,
        checkpointer: Optional[CheckpointManager] = None,
    ) -> DriverReport: ...


#: Records per batch on the serial fast path: large enough to amortize
#: the per-batch ruleset pass and line joins, small enough to keep the
#: working set (records + joined lines + encoded bytes) in cache.  A
#: batch's bytes pass the stats collector's 64 KiB block size, so each
#: batch is one deflate block, compressed (where a second CPU is free)
#: while the next one is read.
SERIAL_BATCH_SIZE = 4096


class SerialDriver:
    """The reference schedule: batches in stream order, in process.

    The records move through :meth:`AlertPath.process_batch` —
    semantically the per-record loop, with the per-record render/
    encode/compress/severity overhead amortized per batch.  The serial
    checkpoint barrier is *any record*, so with a checkpointer each
    batch is cut where the next snapshot is due and the barrier is
    checked after every cut: snapshots land on exactly the
    ``records_consumed`` values a per-record loop would give them,
    quarantined records included.
    """

    name = "serial"

    def run(
        self,
        source: Iterator[LogRecord],
        path: AlertPath,
        checkpointer: Optional[CheckpointManager] = None,
    ) -> DriverReport:
        stream = iter(source)
        while True:
            size = SERIAL_BATCH_SIZE
            if checkpointer is not None:
                size = min(size, checkpointer.due_in(path.consumed))
            batch = list(islice(stream, size))
            if not batch:
                break
            path.process_batch(batch)
            if checkpointer is not None:
                checkpointer.maybe(path.consumed, path.snapshot)
        return DriverReport()


class ShardedDriver:
    """Tagging fans out to worker processes; everything order-defined
    stays in the parent.

    Only the tagger — the hot path, where almost every record matches no
    rule — runs in workers.  Batches are cut from the *raw* stream and
    only the records that pass admission are shipped (strict mode admits
    everything, so there the shipped batch *is* the raw batch);
    admission, quarantine, stats, severity, and the filter all happen in
    the parent when the merged outcome is handed to
    :meth:`AlertPath.process_batch`, in original stream order, so the
    dead-letter interleaving and every path decision match the serial
    schedule exactly.

    Checkpoints are taken at batch boundaries: when batch *i* has been
    processed, the path reflects exactly the records of batches ``0..i``
    — records pulled into still-in-flight batches have touched no path
    state — so ``path.consumed`` is a consistent resume point even
    though workers are still busy.
    """

    name = "sharded"

    def __init__(self, config: ParallelConfig):
        self.config = config

    def run(
        self,
        source: Iterator[LogRecord],
        path: AlertPath,
        checkpointer: Optional[CheckpointManager] = None,
    ) -> DriverReport:
        pending: Deque[List[LogRecord]] = deque()

        def ship(raw_batch: List[LogRecord]) -> List[LogRecord]:
            pending.append(raw_batch)
            if path.dead_letters is None:
                return raw_batch
            return [r for r in raw_batch if path.valid(r)]

        with ShardedTagger(path.system, self.config) as sharded:
            for _shipped, outcome in sharded.tag_batches(
                map(ship, chunked(source, self.config.batch_size))
            ):
                path.process_batch(pending.popleft(), outcome)
                if checkpointer is not None:
                    checkpointer.maybe(path.consumed, path.snapshot)
            shard_stats = sharded.stats
        return DriverReport(shard_stats=shard_stats)


#: How far sustained overload raises the filter ``T`` in degraded mode.
DEGRADE_THRESHOLD_FACTOR = 4.0


class BoundedDriver:
    """One bounded ingest queue ahead of the batch kernel, driven in ticks.

    Per tick the source offers ``arrival_batch`` records — credit-paced
    for a pausable source (nothing lost), shed-policy-gated for an
    unpausable one (every loss accounted).  They are admitted and tagged
    **once** — in process, or chunked through the worker pool of a
    :class:`ParallelConfig`, the only place the two seams differ — and
    offered to the run's :class:`~repro.resilience.shedding.
    BoundedIngest`, the door the service's tenants also admit through:
    the verdict (alert, nothing, or the tagger error's ``repr``) is what
    the shed policy classifies from and what rides the queue beside the
    record.  What the door refuses is this driver's to tally and
    dead-letter; the pump serves ``service_batch`` of the queued pairs
    to :meth:`AlertPath.process_batch` as a finished outcome.  A
    record the rules engine fails on classes as a tagged alert (may
    spill, never shed) and the kernel's replay dead-letters it
    ``tagger-error`` in stream order.  Sustained overload (the monitor's
    high-watermark flag) optionally degrades the run — coarse stats,
    larger filter ``T`` — instead of growing without bound.

    Checkpoints are taken only at drained-queue barriers, where every
    consumed record has been processed, quarantined, or shed; shedding
    makes resumed results equivalent within shedding tolerance rather
    than byte-identical.  The shed policy's dedup lookback is part of
    the snapshot, and degraded mode rides it as its effects (the raised
    ``T``, the coarse-stats flag), so a resumed pump keeps both.
    """

    name = "bounded"

    def __init__(
        self,
        config: BackpressureConfig,
        parallel: Optional[ParallelConfig] = None,
    ):
        self.config = config
        self.parallel = parallel
        if parallel is not None:
            self.name = "bounded-sharded"

    def run(
        self,
        source: Iterator[LogRecord],
        path: AlertPath,
        checkpointer: Optional[CheckpointManager] = None,
    ) -> DriverReport:
        config = self.config
        if path.dead_letters is None:
            # Bounded mode must never lose a tagged alert silently: the
            # spill path needs somewhere accounted to land.
            path.dead_letters = DeadLetterQueue()
        accounting = (
            config.accounting if config.accounting is not None else ShedAccounting()
        )
        monitor = (
            config.monitor if config.monitor is not None
            else OverloadMonitor(sustain=config.sustain)
        )
        ingest = BoundedIngest(
            "ingest", config, path.threshold, path.resumed_shed_state
        )
        ingest_q = monitor.attach(ingest.queue)
        gate = CreditGate(ingest_q)
        sharded = (
            ShardedTagger(path.system, self.parallel)
            if self.parallel is not None else None
        )
        exhausted = False

        with sharded if sharded is not None else nullcontext():
            while not exhausted or ingest_q:
                if not exhausted:
                    want = config.arrival_batch
                    if config.source_pausable:
                        want = gate.acquire(want)
                    arrivals = list(islice(source, want))
                    exhausted = len(arrivals) < want
                    monitor.note_throughput("arrive", len(arrivals))
                    if all(map(path.valid, arrivals)):
                        path.consumed += len(arrivals)
                    else:
                        arrivals = [r for r in arrivals if path.admit(r)]
                    # The one place the two tag seams differ: matched in
                    # process, or shipped through the pool, whose merge
                    # hands outcomes back in stream order.
                    tagged = (
                        ((arrivals, path.tagger.tag_batch(arrivals)),)
                        if sharded is None else sharded.tag_batches(
                            chunked(arrivals, self.parallel.batch_size)
                        )
                    )
                    offered, shed, spilled = Counter(), Counter(), Counter()
                    for part, outcome in tagged:
                        classes, dropped, refused = ingest.offer(part, outcome)
                        offered.update(classes)
                        shed.update(dropped)
                        for record, _verdict, klass in refused:
                            spilled[klass] += 1
                            path.dead_letters.put(
                                record, REASON_SHED_OVERLOAD, klass
                            )
                    for count, tally in ((accounting.count_offered, offered),
                                         (accounting.count_shed, shed),
                                         (accounting.count_spilled, spilled)):
                        for klass, n in tally.items():
                            count(klass, n)

                batch = ingest_q.take(config.service_batch)
                alerts = path.process_tagged(batch)
                monitor.note_throughput("tag", len(batch))
                monitor.note_throughput("filter", len(alerts))
                monitor.sample()
                # Degraded mode is path state, not a pump local: it rides
                # the checkpoint, so a resumed pump is in it already.
                if (config.degrade and monitor.sustained_overload
                        and not path.stats_collector.coarse):
                    path.stats_collector.coarse = True
                    path.filter.threshold = (
                        path.threshold * DEGRADE_THRESHOLD_FACTOR
                    )
                    monitor.events.append(
                        f"degraded mode entered: filter T raised to "
                        f"{path.filter.threshold:g}s, stats coarsened"
                    )
                if checkpointer is not None and not ingest_q:
                    # A true barrier: the tick's drain was fully processed
                    # and offered, nothing is queued or in flight.
                    checkpointer.maybe(
                        path.consumed,
                        lambda: path.snapshot(
                            shed_state=ingest.policy.state_dict()
                        ),
                    )

        return DriverReport(
            shard_stats=sharded.stats if sharded is not None else None,
            overload=OverloadReport.from_parts(
                monitor=monitor, accounting=accounting, gate=gate,
                degraded=path.stats_collector.coarse,
            ),
        )
