"""One tenant's isolated pipeline: queue, policy, path, supervision.

A :class:`Tenant` is everything one source stream owns and nothing it
shares: its own :class:`~repro.engine.path.AlertPath` (filter clocks,
stats, severity tab), its own :class:`~repro.resilience.shedding.
BoundedIngest` (the bounded queue with watermarks and the shed policy
guarding it), its own :class:`DeadLetterQueue`, its own circuit
breaker and restart budget, and its own asyncio worker task.  Isolation
falls out of that ownership plus cooperative scheduling: a worker serves
at most ``service_batch`` records per wakeup and then yields the event
loop, so a tenant under a 10x burst or a crash-loop cannot starve the
other tenants' workers or the listeners.

Records take the door the bounded driver's take — the same class, not
a copy of its loop: a run of arrivals (:meth:`Tenant.offer_batch`, one
per tenant per chunk a listener read) is tagged **once** and offered to
the tenant's ``BoundedIngest``; the verdict — the alert, nothing, or the
tagger error's ``repr`` — classes each record for shedding and rides the
queue beside it, and what the door refuses is the tenant's to count and
dead-letter.  The worker shows a batch's records to the fault hook,
then serves them through the batch kernel with the queued verdicts as
its tag outcome (:meth:`AlertPath.process_tagged`); the per-record
reference runs only to find the record a failed kernel call died on.

Crash handling follows the supervisor contract (PR 1) adapted to a
stream that cannot be replayed: the poison record is dead-lettered
(``worker-crash``, classified so tagged-alert conservation stays exact),
path state is rebuilt from the last drained-queue checkpoint — journaled
alert counts live *outside* the path and are never rolled back — and
after ``restart_budget`` crashes the tenant is quarantined: a final
dead-letter accounting snapshot is captured first (the same fix the
batch supervisor got), then every subsequent arrival is dead-lettered
under ``tenant-quarantined`` so even a dead tenant loses nothing
silently.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Deque, Optional, Sequence, Tuple

from ..core.categories import Alert
from ..core.filtering import FilterReport
from ..engine.path import AlertPath
from ..engine.stages import ObservingSink
from ..logmodel.record import LogRecord
from ..resilience.backpressure import PressureLevel
from ..resilience.checkpoint import PipelineCheckpoint
from ..resilience.deadletter import (
    DeadLetterQueue,
    DeadLetterSnapshot,
    REASON_CIRCUIT_OPEN,
    REASON_SHED_OVERLOAD,
    REASON_TENANT_QUARANTINED,
    REASON_WORKER_CRASH,
)
from ..resilience.retry import BreakerState, CircuitBreaker
from ..resilience.shedding import BoundedIngest
from .accounting import TenantCounters
from .config import ServiceConfig


class ServiceAlertSink:
    """Bounded-retention alert sink with monotonic journal counts.

    The batch pipeline keeps every alert in memory because a run ends; a
    service must not.  This sink keeps the newest ``tail`` alerts for the
    live ``alerts`` endpoint and counts *every* emit in the tenant's
    :class:`TenantCounters` — the counts are the conservation authority
    and survive crash-restores of path state (a restart can never
    un-report an alert).  ``raw_alerts``/``filtered_alerts`` satisfy the
    sink shape :meth:`AlertPath.snapshot` expects.
    """

    def __init__(
        self,
        report: FilterReport,
        counters: TenantCounters,
        tail: int,
        raw_seed: Tuple[Alert, ...] = (),
        filtered_seed: Tuple[Alert, ...] = (),
        journal: Optional[Callable[[str, Any], Any]] = None,
    ):
        self.report = report
        self.counters = counters
        self.raw_alerts: Deque[Alert] = deque(raw_seed, maxlen=tail)
        self.filtered_alerts: Deque[Alert] = deque(filtered_seed, maxlen=tail)
        #: Optional write-ahead journal hook (``journal(kind, obj)``):
        #: with a ``--state-dir``, every emit is journaled before it is
        #: counted so a crash can never un-report an alert.
        self.journal = journal

    def emit_batch(self, pairs: Sequence[Tuple[Alert, bool]]) -> None:
        counters = self.counters
        raw_append = self.raw_alerts.append
        kept_append = self.filtered_alerts.append
        record = self.report.record
        journal = self.journal
        for alert, kept in pairs:
            if journal is not None:
                journal("alert", (alert, kept))
            counters.alerts_raw += 1
            raw_append(alert)
            record(alert, kept)
            if kept:
                counters.alerts_filtered += 1
                kept_append(alert)


@dataclass
class ParkedTenant:
    """An evicted tenant's resumable state (the checkpoint handoff)."""

    tenant_id: str
    system: str
    checkpoint: PipelineCheckpoint
    counters: TenantCounters
    dead_letters: DeadLetterSnapshot
    parked_at: float


class Tenant:
    """One tenant stream's state, worker, and supervision."""

    def __init__(
        self,
        tenant_id: str,
        system: str,
        config: ServiceConfig,
        governor=None,
        parked: Optional[ParkedTenant] = None,
        persistence=None,
    ):
        self.tenant_id = tenant_id
        self.system = system
        self.config = config
        self.governor = governor
        #: Optional durable backend (:class:`~repro.service.persistence.
        #: TenantPersistence` or anything with ``journal``/``sync``/
        #: ``save_parked``/``dead_letter_queue``).  Duck-typed so this
        #: module never imports the persistence layer.
        self._persist = persistence

        self.dead_letters = (
            persistence.dead_letter_queue(config.dead_letter_capacity)
            if persistence is not None
            else DeadLetterQueue(capacity=config.dead_letter_capacity)
        )
        checkpoint = parked.checkpoint if parked is not None else None
        self.counters = parked.counters if parked is not None else (
            TenantCounters()
        )
        #: Per-tenant columnar alert store (``config.store_dir``): the
        #: alert flow is teed into it and committed at the same barriers
        #: as tenant checkpoints.  ``begin(None)`` is journal-resume
        #: mode — a resurrected or unparked tenant appends after
        #: whatever its manifest committed.
        self._store_writer = None
        if config.store_dir:
            from ..store import ColumnarStoreWriter
            from .persistence import tenant_dirname

            self._store_writer = ColumnarStoreWriter(
                os.path.join(config.store_dir, tenant_dirname(tenant_id)),
                system,
            )
            self._store_writer.begin(None)
        # AlertPath(resume_from=...) restores the dead-letter queue from
        # the checkpoint; for a parked tenant that snapshot *is* the live
        # state (taken at park time with the queue drained), so this is
        # the handoff, not a rollback.
        self.checkpoint = checkpoint
        self.path = self._new_path()
        self._install_sink(
            raw_seed=tuple(self.path.sink.raw_alerts),
            filtered_seed=tuple(self.path.sink.filtered_alerts),
        )

        #: The door (shared with the bounded driver); its queue and
        #: policy are this tenant's to drain and to checkpoint.
        self.ingest = BoundedIngest(
            f"ingest:{tenant_id}", config, config.threshold,
            checkpoint.shed_state if checkpoint is not None else None,
        )
        self.queue = self.ingest.queue
        self.policy = self.ingest.policy
        if parked is not None:
            self.counters.resumes += 1

        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            reset_timeout=config.breaker_reset,
        )
        # A resurrection cannot refund a spent restart budget: the crash
        # count rides in the (journaled) counters, so a tenant that was
        # quarantined when the process died comes back quarantined.
        self.quarantined = self.counters.crashes > config.restart_budget
        self.final_dead_letters: Optional[DeadLetterSnapshot] = None
        if self.quarantined:
            self.final_dead_letters = self.dead_letters.snapshot()
        self.draining = False
        self.last_activity = time.monotonic()
        self._since_checkpoint = 0
        self._wakeup = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        #: (monotonic time, processed count) samples for throughput.
        self.samples: Deque[Tuple[float, int]] = deque(maxlen=16)

    # -- wiring ------------------------------------------------------------

    def _prediction_stage(self):
        """A fresh per-tenant prediction stage when ``config.predict``
        asks for one, else ``None``.  Lazy import so predict-less
        services never pay for the streaming package.  Checkpoint
        restore happens inside AlertPath — a rebuilt path's fresh stage
        is loaded from the checkpoint's ``prediction_state``, so the
        miner/ensemble roll back with the filter clocks, never ahead."""
        if not self.config.predict:
            return None
        from ..streaming import prediction_stage

        return prediction_stage(self.config.predict)

    def _new_path(self) -> AlertPath:
        return AlertPath(
            self.system, threshold=self.config.threshold,
            dead_letters=self.dead_letters, resume_from=self.checkpoint,
            prediction=self._prediction_stage(),
        )

    def _install_sink(self, raw_seed=(), filtered_seed=()) -> None:
        # A restored path carries its checkpoint's stats mode; in the
        # service that mode is the governor's call, as of now.
        self.path.stats_collector.coarse = (
            self.governor is not None and self.governor.degraded
        )
        self._sink = ServiceAlertSink(
            self.path.report,
            self.counters,
            self.config.alert_tail,
            raw_seed=raw_seed,
            filtered_seed=filtered_seed,
            journal=(
                self._persist.journal if self._persist is not None else None
            ),
        )
        self.path.sink = self._sink
        if self.path.prediction is not None:
            # Re-tee the alert flow into the prediction stage: replacing
            # path.sink above dropped the ObservingSink wrapper AlertPath
            # installed.  The service sink stays the counting authority.
            self.path.sink = ObservingSink(
                self._sink, self.path.prediction.observe_batch
            )
        if self._store_writer is not None:
            # Outermost so every emit the service counts also lands a
            # column row; path rebuilds never roll the store back (it is
            # append-only, like the journaled counts).  Commit cadence is
            # the tenant's: the same barriers it checkpoints at.
            self.path.sink = ObservingSink(
                self.path.sink, self._store_writer.append_batch
            )

    def start(self) -> None:
        """Spawn the worker task on the running loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._work(), name=f"tenant:{self.tenant_id}"
            )

    @property
    def alert_tail(self) -> Tuple[Alert, ...]:
        return tuple(self._sink.raw_alerts)

    @property
    def breaker_state(self) -> str:
        return self.breaker.state.name.lower()

    # -- ingest (called in-loop by the router/listeners) -------------------

    def offer(self, record: LogRecord) -> None:
        """Admit, shed, or refuse one arriving record — never silently."""
        self.offer_batch((record,))

    def offer_batch(self, records: Sequence[LogRecord]) -> None:
        """Admit, shed, or refuse a run of arriving records — never
        silently.  Tagged once, here: the verdict decides each record's
        shed class and is queued beside it, ``(record, verdict)``."""
        self.counters.received += len(records)
        now = self.last_activity = time.monotonic()
        outcome = self.path.tagger.tag_batch(records)
        # (Nothing can open a closed breaker inside this call; an open
        # one asked at one ``now`` refuses every record or none.)
        if self.quarantined or (
            self.breaker.state is not BreakerState.CLOSED
            and not all([self.breaker.allow(now) for _ in records])
        ):
            reason = (REASON_TENANT_QUARANTINED if self.quarantined
                      else REASON_CIRCUIT_OPEN)
            alerts = dict(outcome.hits)
            for at, record in enumerate(records):
                self._refuse(record, reason, alerts.get(at))
            # No worker batch will sync a dead tenant's letters (the worker
            # is gone); land them now so it loses nothing across restarts.
            if self.quarantined and self._persist is not None:
                self._persist.sync()
            return
        floor = (
            self.governor.level() if self.governor is not None
            else PressureLevel.NORMAL
        )
        _offered, shed, refused = self.ingest.offer(records, outcome, floor)
        for klass in shed:
            self.counters.count_shed(klass)
        for record, verdict, klass in refused:
            self._refuse(record, REASON_SHED_OVERLOAD, verdict, klass)
        if self.queue:
            self._wakeup.set()

    def _refuse(self, record: LogRecord, reason: str, verdict,
                detail: str = "") -> None:
        """Dead-letter a record the worker will never see, classified by
        the door's verdict (an alert is tagged; a tagger error counts as
        untagged, the ground-truth convention) so tagged-alert
        conservation stays exact."""
        self.dead_letters.put(record, reason, detail)
        self.counters.count_refused(reason, isinstance(verdict, Alert))

    # -- the worker --------------------------------------------------------

    async def _work(self) -> None:
        while True:
            if not self.queue:
                if self.draining or self.quarantined:
                    break
                self._wakeup.clear()
                # Re-check after clearing: an offer between the check and
                # the clear must not be lost.
                if not self.queue:
                    await self._wakeup.wait()
                continue
            batch = self.queue.take(self.config.service_batch)
            crashes = self.counters.crashes
            served = self._serve(batch)
            if self.counters.crashes == crashes:
                self.breaker.record_success()
            if self.quarantined:
                self._flush_quarantined(batch[served:])
                break
            if self._persist is not None:
                # Drained-queue boundaries journal a full counters dict
                # (last one wins on replay); either way the batch's
                # alert/letter entries hit the disk before new arrivals
                # are served.
                if not self.queue:
                    self._persist.journal("counters", self.counters.as_dict())
                self._persist.sync()
            self._maybe_checkpoint()
            # Fairness: one batch per wakeup, then yield the loop so no
            # tenant can starve another (or the listeners).
            await asyncio.sleep(0)
        if self.draining and not self.quarantined:
            # Drain barrier: everything consumed, snapshot final state.
            self._take_checkpoint()

    def _serve(self, batch) -> int:
        """One worker batch: the fault hook sees each record (once, in
        order) ahead of the kernel, which serves the runs between the
        records the hook raises on; those crash where they stood.
        Returns how many records have a fate: all, unless quarantined."""
        hook = self.config.fault_hook
        done = 0
        for at, (record, verdict) in enumerate(batch if hook else ()):
            try:
                hook(self.tenant_id, record)
            except Exception:
                done += self._serve_run(batch[done:at])
                if not self.quarantined:
                    self._on_crash(record, verdict)
                    done += 1
                if self.quarantined:
                    return done
        return done + self._serve_run(batch[done:])

    def _serve_run(self, pairs) -> int:
        """Serve one run the hook passed.  An exception out of the
        kernel names no record and leaves the path half-updated: roll it
        back (the crash would anyway) and replay the run through the
        per-record reference, which crashes on the record itself.  What
        the failed call had journaled is journaled again: at least once."""
        try:
            self.path.process_tagged(pairs, admitted=False)
        except Exception:
            self._rebuild_path()
        else:
            self.counters.processed += len(pairs)
            self._since_checkpoint += len(pairs)
            return len(pairs)
        for at, (record, verdict) in enumerate(pairs):
            try:
                if self.path.admit(record):
                    self.path.process(record)
            except Exception:
                self._on_crash(record, verdict)
                if self.quarantined:
                    return at + 1
            else:
                self.counters.processed += 1
                self._since_checkpoint += 1
        return len(pairs)

    def _on_crash(self, record: LogRecord, verdict) -> None:
        """Absorb one worker crash: dead-letter the poison record, rebuild
        path state from the last checkpoint, and quarantine once the
        restart budget is spent."""
        self.counters.crashes += 1
        self._refuse(record, REASON_WORKER_CRASH, verdict)
        self.breaker.record_failure(time.monotonic())
        if self.counters.crashes > self.config.restart_budget:
            # The same contract as the batch supervisor's exhaustion fix:
            # capture final accounting *before* anything rolls back.
            self.quarantined = True
            self.final_dead_letters = self.dead_letters.snapshot()
            return
        self._rebuild_path()

    def _rebuild_path(self) -> None:
        """Restore path state from the last drained-queue checkpoint (or
        fresh).  The live dead-letter queue and journaled alert counts are
        preserved — only internal path state (filter clocks, stats) rolls
        back, which is the documented shedding-tolerance degradation."""
        live_letters = self.dead_letters.snapshot()
        self.path = self._new_path()
        self.dead_letters.restore(live_letters)
        self._install_sink(
            raw_seed=tuple(self._sink.raw_alerts),
            filtered_seed=tuple(self._sink.filtered_alerts),
        )
        self._since_checkpoint = 0

    def _flush_quarantined(self, in_flight) -> None:
        """Account the rest of the batch quarantine hit in and every
        record still queued; then refresh the final snapshot to cover it."""
        queued = self.queue.take(len(self.queue))
        for record, verdict in chain(in_flight, queued):
            self._refuse(record, REASON_TENANT_QUARANTINED, verdict)
        self.final_dead_letters = self.dead_letters.snapshot()
        if self._persist is not None:
            self._persist.journal("counters", self.counters.as_dict())
            self._persist.sync()

    # -- checkpoints -------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        if (
            not self.queue
            and self._since_checkpoint >= self.config.checkpoint_every
        ):
            self._take_checkpoint()

    def _take_checkpoint(self) -> None:
        if self._store_writer is not None:
            # Commit before the checkpoint lands so the store's manifest
            # seq is never behind any durable snapshot.
            self._store_writer.commit()
        self.checkpoint = self.path.snapshot(
            shed_state=self.policy.state_dict()
        )
        self._since_checkpoint = 0
        if self._persist is not None:
            self._persist.save_parked(self._bundle(self.checkpoint))

    def _bundle(self, checkpoint: PipelineCheckpoint) -> ParkedTenant:
        """The durable form of the current state (same shape as
        :meth:`park`, but the tenant stays live)."""
        return ParkedTenant(
            tenant_id=self.tenant_id,
            system=self.system,
            checkpoint=checkpoint,
            counters=self.counters,
            dead_letters=(
                checkpoint.dead_letters or self.dead_letters.snapshot()
            ),
            parked_at=time.monotonic(),
        )

    # -- lifecycle ---------------------------------------------------------

    def idle_for(self, now: float) -> float:
        return now - self.last_activity

    def evictable(self, now: float) -> bool:
        """Idle past the TTL with nothing in flight.  Quarantined tenants
        stay resident: parking one would resurrect it un-quarantined,
        forgetting the budget it already spent."""
        return (
            not self.quarantined
            and not self.draining
            and not self.queue
            and self.idle_for(now) >= self.config.idle_ttl
        )

    def park(self) -> ParkedTenant:
        """Checkpoint handoff: capture complete resumable state and stop
        the worker.  Caller must have checked :meth:`evictable`."""
        if self._task is not None:
            self._task.cancel()
            self._task = None
        self.counters.evictions += 1
        self._take_checkpoint()
        return self._bundle(self.checkpoint)

    async def drain(self) -> None:
        """Process everything pending, take a final checkpoint, stop."""
        self.draining = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None
        if self._store_writer is not None:
            # Drain is terminal: land everything buffered and mark the
            # manifest complete so offline analytics trust the store.
            self._store_writer.finalize()

    def note_sample(self, now: float) -> None:
        self.samples.append((now, self.counters.processed))

    def throughput(self) -> float:
        """Records/second over the sampled window (0 when unknown)."""
        if len(self.samples) < 2:
            return 0.0
        (t0, c0), (t1, c1) = self.samples[0], self.samples[-1]
        if t1 <= t0:
            return 0.0
        return (c1 - c0) / (t1 - t0)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """One tenant's row for the stats endpoint."""
        row = self.counters.as_dict()
        row.update({
            "tenant": self.tenant_id,
            "system": self.system,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "queue_peak": self.queue.peak_occupancy,
            "dead_letter_depth": len(self.dead_letters),
            "dead_letter_total": self.dead_letters.quarantined,
            "dead_letter_by_reason": dict(self.dead_letters.by_reason),
            "breaker": self.breaker_state,
            "breaker_times_opened": self.breaker.times_opened,
            "quarantined": self.quarantined,
            "restart_budget_left": max(
                0, self.config.restart_budget - self.counters.crashes
            ),
            "throughput": round(self.throughput(), 1),
            "conserves": self.counters.conserves(len(self.queue)),
        })
        if self._store_writer is not None:
            row["store"] = {
                "dir": self._store_writer.root,
                "seq": self._store_writer.seq,
            }
        prediction = self.path.prediction
        if prediction is not None:
            row["prediction"] = {
                "observed_alerts": prediction.observed,
                "warnings": prediction.ensemble.warnings_emitted,
                "refits": prediction.ensemble.refits,
                "members": len(prediction.ensemble.member_rows()),
            }
        return row


#: Re-exported for the stats endpoint's breaker rendering.
__all__ = [
    "BreakerState",
    "ParkedTenant",
    "PressureLevel",
    "ServiceAlertSink",
    "Tenant",
]
