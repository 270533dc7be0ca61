"""One tenant's isolated pipeline: queue, policy, path, supervision.

A :class:`Tenant` is everything one source stream owns and nothing it
shares: its own :class:`~repro.engine.path.AlertPath` (filter clocks,
stats, severity tab), its own :class:`BoundedQueue` with watermarks, its
own :class:`ShedPolicy` and :class:`DeadLetterQueue`, its own circuit
breaker and restart budget, and its own asyncio worker task.  Isolation
falls out of that ownership plus cooperative scheduling: a worker serves
at most ``service_batch`` records per wakeup and then yields the event
loop, so a tenant under a 10x burst or a crash-loop cannot starve the
other tenants' workers or the listeners.

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
from typing import Any, Callable, Deque, Optional, Sequence, Tuple

from ..core.categories import Alert
from ..core.filtering import FilterReport
from ..engine.path import AlertPath
from ..engine.stages import ObservingSink
from ..logmodel.record import LogRecord
from ..resilience.backpressure import (
    SHED,
    SPILL,
    BoundedQueue,
    PressureLevel,
    Watermarks,
)
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
from ..resilience.shedding import (
    CLASS_ALERT,
    CLASS_DUPLICATE,
    get_shed_policy,
)
from .accounting import TenantCounters
from .config import ServiceConfig

#: Shed classes that represent records an expert rule would tag.
TAGGED_CLASSES = frozenset({CLASS_ALERT, CLASS_DUPLICATE})


class TenantQuarantined(RuntimeError):
    """Raised by :meth:`Tenant.ensure_live` when the tenant is dead."""


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
        self.path = AlertPath(
            system,
            threshold=config.threshold,
            dead_letters=self.dead_letters,
            resume_from=checkpoint,
            prediction=self._prediction_stage(),
        )
        self._install_sink(
            raw_seed=tuple(self.path.sink.raw_alerts),
            filtered_seed=tuple(self.path.sink.filtered_alerts),
        )

        window = (
            config.threshold if config.dedup_window is None
            else config.dedup_window
        )
        self.policy = get_shed_policy(
            config.shed_policy, dedup_window=window
        ).bind(self.path.tagger)
        if checkpoint is not None and checkpoint.shed_state is not None:
            self.policy.load_state_dict(checkpoint.shed_state)
        if parked is not None:
            self.counters.resumes += 1

        self.queue = BoundedQueue(
            f"ingest:{tenant_id}",
            config.max_buffer,
            Watermarks.for_capacity(
                config.max_buffer, config.high_fraction, config.low_fraction
            ),
        )
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            reset_timeout=config.breaker_reset,
        )
        self.checkpoint = checkpoint
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
        self.counters.received += 1
        self.last_activity = time.monotonic()
        if self.quarantined:
            self._refuse(record, REASON_TENANT_QUARANTINED)
            # No worker batch will sync this letter (the worker is gone);
            # land it now so a dead tenant loses nothing across restarts.
            if self._persist is not None:
                self._persist.sync()
            return
        if not self.breaker.allow(time.monotonic()):
            self._refuse(record, REASON_CIRCUIT_OPEN)
            return
        level = self.queue.pressure()
        if self.governor is not None:
            level = max(level, self.governor.level())
        decision, klass = self.policy.decide(record, level)
        if decision == SHED:
            self.counters.count_shed(klass)
            return
        if decision == SPILL or not self.queue.put(record):
            self._refuse(
                record, REASON_SHED_OVERLOAD,
                tagged=klass in TAGGED_CLASSES, detail=klass,
            )
            return
        self._wakeup.set()

    def _refuse(
        self,
        record: LogRecord,
        reason: str,
        tagged: Optional[bool] = None,
        detail: str = "",
    ) -> None:
        """Dead-letter a record the worker will never see, classified so
        tagged-alert conservation stays exact."""
        if tagged is None:
            tagged = self._would_tag(record)
        self.dead_letters.put(record, reason, detail)
        self.counters.count_refused(reason, tagged)

    def _would_tag(self, record: LogRecord) -> bool:
        """Would any expert rule tag this record?  (Classification only —
        no dedup state is touched; errors count as untagged, matching the
        ground-truth convention.)"""
        try:
            return self.path.tagger.match(record) is not None
        except Exception:
            return False

    def ensure_live(self) -> None:
        if self.quarantined:
            raise TenantQuarantined(self.tenant_id)

    # -- the worker --------------------------------------------------------

    async def _work(self) -> None:
        config = self.config
        hook = config.fault_hook
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
            batch = self.queue.take(config.service_batch)
            clean = True
            for position, record in enumerate(batch):
                try:
                    if hook is not None:
                        hook(self.tenant_id, record)
                    if self.path.admit(record):
                        self.path.process(record)
                    self.counters.processed += 1
                    self._since_checkpoint += 1
                except Exception:
                    clean = False
                    self._on_crash(record)
                    if self.quarantined:
                        # The rest of the in-flight batch is already out
                        # of the queue; account it before exiting.
                        for rest in batch[position + 1:]:
                            self._refuse(rest, REASON_TENANT_QUARANTINED)
                        break
            if clean and batch:
                self.breaker.record_success()
            if self.quarantined:
                self._flush_quarantined()
                break
            if self._persist is not None and batch:
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

    def _on_crash(self, record: LogRecord) -> None:
        """Absorb one worker crash: dead-letter the poison record, rebuild
        path state from the last checkpoint, and quarantine once the
        restart budget is spent."""
        self.counters.crashes += 1
        self._refuse(record, REASON_WORKER_CRASH)
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
        self.path = AlertPath(
            self.system,
            threshold=self.config.threshold,
            dead_letters=self.dead_letters,
            resume_from=self.checkpoint,
            prediction=self._prediction_stage(),
        )
        self.dead_letters.restore(live_letters)
        self._install_sink(
            raw_seed=tuple(self._sink.raw_alerts),
            filtered_seed=tuple(self._sink.filtered_alerts),
        )
        self.policy.bind(self.path.tagger)
        self._since_checkpoint = 0

    def _flush_quarantined(self) -> None:
        """Account every record still queued when quarantine hit; then
        refresh the final snapshot so it covers the flush."""
        while self.queue:
            record = self.queue.get()
            self._refuse(record, REASON_TENANT_QUARANTINED)
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
        if self._store_writer is not None:
            self._store_writer.commit()
        checkpoint = self.path.snapshot(shed_state=self.policy.state_dict())
        if self._task is not None:
            self._task.cancel()
            self._task = None
        self.counters.evictions += 1
        parked = ParkedTenant(
            tenant_id=self.tenant_id,
            system=self.system,
            checkpoint=checkpoint,
            counters=self.counters,
            dead_letters=checkpoint.dead_letters or self.dead_letters.snapshot(),
            parked_at=time.monotonic(),
        )
        if self._persist is not None:
            self._persist.save_parked(parked)
        return parked

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
    "TAGGED_CLASSES",
    "Tenant",
    "TenantQuarantined",
]
