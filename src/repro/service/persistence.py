"""Durable tenant state: the service's twin of the durability layer.

A long-lived ``repro serve`` must survive what a batch run never sees —
the host dying mid-burst — without forgetting what its tenants already
reported.  This module persists each tenant's resumable state under
``state_dir/tenants/<quoted-id>/`` using the two primitives from
:mod:`repro.resilience.durability`:

* a generational :class:`~repro.resilience.durability.CheckpointStore`
  holding the tenant's :class:`~repro.service.tenant.ParkedTenant`
  bundle (the same object ``park()`` hands the router), written at
  every drained-queue checkpoint and at eviction; and
* a per-tenant :class:`~repro.resilience.durability.SegmentedWal`
  journaling what happened *since* that checkpoint: every alert emitted
  (``("alert", (alert, kept))``), every dead-lettered record
  (``("letter", (record, reason, detail))``), and a full counters dict
  at each drained-queue batch boundary (``("counters", {...})``, last
  one wins).  A ``("checkpoint", generation)`` marker is appended after
  each durable checkpoint lands so replay knows where the journal's
  coverage begins even if the post-checkpoint reset was interrupted.

Recovery composes the two: load the newest verifiable bundle, then
replay the journal's tail on top of it.  Alert and letter entries
re-enter the alert tail and the dead-letter snapshot; entries *after*
the last counters entry additionally top up the counters (an alert
entry implies one received+processed record, a refusal-reason letter
one received+refused record), so the restored tenant still satisfies
``received == shed + refused + processed`` with an empty queue.
Records that were in flight — queued or still in the socket — when the
process died have no durable trace and are honestly absent from
``received``; path-internal state (filter clocks, statistics, and —
when the tenant runs with prediction — the correlation miner/ensemble,
whose state rides ``PipelineCheckpoint.prediction_state``) rolls
back to the checkpoint.  That is exactly the service's documented
shedding-tolerance equivalence class; the quiesce-then-kill case
(drained queues, checkpoint taken) restores byte-identically.

Every file here — generations, MANIFEST, journal segments and the
``TENANT`` identity — is written and read by the one durable codec,
:mod:`repro.resilience.wire`, which loads only the state types in
``wire.STATE_TYPES`` (:class:`~repro.service.tenant.ParkedTenant` and
:class:`~repro.service.accounting.TenantCounters` among them).

Storage failures never take a tenant down: every store and journal in
one service shares a single :class:`DurabilityStatus`, so ENOSPC/EIO
latch degraded mode with an exact count of unpersisted state while the
in-memory service keeps serving.
"""

from __future__ import annotations

import os
import time
import urllib.parse
from dataclasses import replace as dc_replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.rules import get_ruleset
from ..core.tagging import Tagger
from ..engine.path import AlertPath
from ..logmodel.record import LogRecord
from ..resilience import wire
from ..resilience.deadletter import (
    DeadLetterQueue,
    REASON_CIRCUIT_OPEN,
    REASON_SHED_OVERLOAD,
    REASON_TENANT_QUARANTINED,
    REASON_WORKER_CRASH,
)
from ..resilience.durability import (
    CheckpointStore,
    DurabilityStatus,
    RealFilesystem,
    SegmentedWal,
)
from .accounting import TenantCounters
from .config import ServiceConfig
from .tenant import ParkedTenant

__all__ = [
    "JournaledDeadLetterQueue",
    "TenantPersistence",
    "TenantStateStore",
]

#: Dead-letter reasons stamped *before* a record reached the tenant's
#: path (``Tenant._refuse``).  Replay counts these as refusals; every
#: other reason is an in-path quarantine of a record the worker already
#: counted as processed.
REFUSAL_REASONS = frozenset({
    REASON_CIRCUIT_OPEN,
    REASON_SHED_OVERLOAD,
    REASON_TENANT_QUARANTINED,
    REASON_WORKER_CRASH,
})

#: The per-tenant identity file naming the stream a directory belongs to
#: (written once, whole or not at all; lets startup reconstruct the
#: parked map from disk without guessing dialects from directory names).
IDENTITY_FILE = "TENANT"


def tenant_dirname(tenant_id: str) -> str:
    """Filesystem-safe directory name for a tenant id (quoted, so ids
    with ``/`` or ``..`` cannot escape the state directory).  A leading
    dot is escaped by hand — dots are unreserved in URL quoting, so the
    ids ``"."`` and ``".."`` would otherwise pass through verbatim and
    name the tenants root or its parent."""
    name = urllib.parse.quote(tenant_id, safe="")
    if name.startswith("."):
        name = "%2E" + name[1:]
    return name


# -- the journaled dead-letter queue -----------------------------------------


class JournaledDeadLetterQueue(DeadLetterQueue):
    """A dead-letter queue whose every :meth:`put` also lands in the
    tenant's write-ahead journal.  ``restore`` (crash rebuilds) does not
    journal — those letters were journaled when first quarantined."""

    def __init__(self, capacity: int, journal: Callable[[str, Any], Any]):
        super().__init__(capacity=capacity)
        self._journal = journal

    def put(self, record: LogRecord, reason: str, detail: str = "") -> None:
        self._journal("letter", (record, reason, detail))
        super().put(record, reason, detail)


# -- one tenant's durable state ----------------------------------------------


class TenantPersistence:
    """The durable backend one :class:`~repro.service.tenant.Tenant`
    journals into: a parked-bundle checkpoint store plus a WAL, sharing
    one :class:`DurabilityStatus` with the whole service."""

    def __init__(
        self,
        directory: str,
        tenant_id: str,
        system: str,
        config: ServiceConfig,
        fs: Optional[RealFilesystem] = None,
        status: Optional[DurabilityStatus] = None,
    ):
        self.directory = str(directory)
        self.tenant_id = tenant_id
        self.system = system
        self.config = config
        self.fs = fs if fs is not None else RealFilesystem()
        self.status = status if status is not None else DurabilityStatus()
        token = (
            f"service:v1|tenant={tenant_id}|system={system}"
            f"|threshold={config.threshold!r}"
        )
        self.store = CheckpointStore(
            os.path.join(self.directory, "checkpoints"),
            token=token,
            fs=self.fs,
            status=self.status,
        )
        # sync_every=0: the worker fsyncs once per served batch, not per
        # alert — the torn tail a crash can cost is one batch's entries,
        # and replay truncates it cleanly.
        self.wal = SegmentedWal(
            os.path.join(self.directory, "wal"),
            sync_every=0,
            fs=self.fs,
            status=self.status,
        )
        self._tagger: Optional[Tagger] = None
        self._write_identity()

    def _write_identity(self) -> None:
        path = os.path.join(self.directory, IDENTITY_FILE)
        try:
            self.fs.ensure_dir(self.directory)
            if not self.fs.exists(path):
                self.fs.atomic_write(path, wire.dump_file(
                    wire.CHECKPOINT_MAGIC,
                    {"tenant": self.tenant_id, "system": self.system},
                ))
        except OSError as exc:
            self.status.latch("tenant identity", exc)

    @staticmethod
    def read_identity(
        directory: str, fs: RealFilesystem
    ) -> Optional[Dict[str, Any]]:
        """The ``TENANT`` identity manifest, or ``None`` if unreadable."""
        path = os.path.join(directory, IDENTITY_FILE)
        try:
            if not fs.exists(path):
                return None
            fields = wire.load_file(
                fs.read_bytes(path), wire.CHECKPOINT_MAGIC, dict
            )
        except (OSError, wire.WireError):
            return None
        if "tenant" not in fields or "system" not in fields:
            return None
        return fields

    # -- the surface Tenant journals through ---------------------------------

    def journal(self, kind: str, obj: Any) -> bool:
        return self.wal.append(kind, obj)

    def sync(self) -> bool:
        return self.wal.sync()

    def dead_letter_queue(self, capacity: int) -> JournaledDeadLetterQueue:
        return JournaledDeadLetterQueue(capacity, self.journal)

    def save_parked(self, bundle: ParkedTenant) -> bool:
        """Persist one durable checkpoint of the tenant; on success the
        journal's contents are covered and dropped (marker first, so a
        kill between save and reset loses nothing)."""
        if not self.store.save(bundle):
            return False
        self.wal.append("checkpoint", self.store.generation)
        self.wal.sync()
        self.wal.reset()
        return True

    # -- recovery ------------------------------------------------------------

    def load_parked(self) -> Optional[ParkedTenant]:
        """The tenant's recovered state: newest verifiable bundle plus
        the journal tail replayed on top (see module docstring), or
        ``None`` when this tenant left no durable trace."""
        bundle = self.store.load(ParkedTenant)
        if bundle is not None and "tail" not in vars(bundle):
            # Written while the tail rode the checkpoint.
            bundle = dc_replace(bundle, tail=tuple(
                vars(bundle.checkpoint).get("raw_alerts", ())
            ))
        entries = list(self.wal.replay())
        cut = 0
        marker_generation: Optional[int] = None
        for index, (kind, obj) in enumerate(entries):
            if kind == "checkpoint":
                cut = index + 1
                marker_generation = obj if isinstance(obj, int) else None
        entries = entries[cut:]
        if bundle is None and not entries:
            return None
        if (
            bundle is not None
            and marker_generation is not None
            and marker_generation != self.store.generation
        ):
            self.status.note(
                f"tenant {self.tenant_id}: journal covers generation "
                f"{marker_generation} but generation "
                f"{self.store.generation} was recovered; the window "
                "between them is lost (shedding-tolerance)"
            )
        if bundle is None:
            self.status.note(
                f"tenant {self.tenant_id}: no checkpoint generation; "
                "rebuilding from the journal alone"
            )
            bundle = self._fresh_bundle()
        if entries:
            bundle = self._replay(bundle, entries)
        return bundle

    def _fresh_bundle(self) -> ParkedTenant:
        """An empty parked bundle (a tenant that crashed before its
        first checkpoint): a pristine path snapshot to replay onto."""
        path = AlertPath(
            self.system,
            threshold=self.config.threshold,
            dead_letters=DeadLetterQueue(
                capacity=self.config.dead_letter_capacity
            ),
        )
        checkpoint = path.snapshot()
        return ParkedTenant(
            tenant_id=self.tenant_id,
            system=self.system,
            checkpoint=checkpoint,
            counters=TenantCounters(),
            dead_letters=checkpoint.dead_letters,
            parked_at=0.0,
        )

    def _would_tag(self, record: LogRecord) -> bool:
        if self._tagger is None:
            self._tagger = Tagger(get_ruleset(self.system))
        try:
            return self._tagger.match(record) is not None
        except Exception:
            return False

    def _replay(
        self, bundle: ParkedTenant, entries: List[Tuple[str, Any]]
    ) -> ParkedTenant:
        checkpoint = bundle.checkpoint
        counters = bundle.counters
        tail = list(bundle.tail)
        letters = DeadLetterQueue(
            capacity=max(
                self.config.dead_letter_capacity,
                len(checkpoint.dead_letters.letters
                    if checkpoint.dead_letters else ()) + len(entries),
            )
        )
        letters.restore(checkpoint.dead_letters or bundle.dead_letters)

        last_counters = -1
        for index, (kind, _obj) in enumerate(entries):
            if kind == "counters":
                last_counters = index
        if last_counters >= 0:
            counters = TenantCounters.from_dict(entries[last_counters][1])

        for index, (kind, obj) in enumerate(entries):
            top_up = index > last_counters
            if kind == "alert":
                alert, kept = obj
                tail.append(alert)
                if top_up:
                    counters.received += 1
                    counters.processed += 1
                    counters.alerts_raw += 1
                    if kept:
                        counters.alerts_filtered += 1
            elif kind == "letter":
                record, reason, detail = obj
                letters.put(record, reason, detail)
                if top_up:
                    counters.received += 1
                    if reason in REFUSAL_REASONS:
                        counters.count_refused(
                            reason, tagged=self._would_tag(record)
                        )
                    else:
                        counters.processed += 1
            # "counters" was consumed above; unknown kinds are skipped
            # (a newer writer's entries must not break an older reader).

        dead_letters = letters.snapshot()
        return dc_replace(
            bundle,
            checkpoint=dc_replace(checkpoint, dead_letters=dead_letters),
            counters=counters,
            dead_letters=dead_letters,
            tail=tuple(tail[-self.config.alert_tail:]),
        )


# -- the service-wide store --------------------------------------------------


class TenantStateStore:
    """Every tenant's durable state under one ``--state-dir``.

    The router asks for a :class:`TenantPersistence` per materialized
    tenant and calls :meth:`load_all` once at startup to rebuild the
    parked map from disk.  One shared :class:`DurabilityStatus` makes
    service-wide degradation observable in a single place."""

    def __init__(
        self,
        state_dir: str,
        config: ServiceConfig,
        fs: Optional[RealFilesystem] = None,
    ):
        self.state_dir = str(state_dir)
        self.config = config
        self.fs = fs if fs is not None else RealFilesystem()
        self.status = DurabilityStatus()

    @property
    def tenants_root(self) -> str:
        return os.path.join(self.state_dir, "tenants")

    def for_tenant(self, tenant_id: str, system: str) -> TenantPersistence:
        return TenantPersistence(
            os.path.join(self.tenants_root, tenant_dirname(tenant_id)),
            tenant_id,
            system,
            config=self.config,
            fs=self.fs,
            status=self.status,
        )

    def load_all(self) -> Dict[str, ParkedTenant]:
        """Recover every tenant that left durable state: the parked map
        ``repro serve`` starts from after a crash or a restart."""
        parked: Dict[str, ParkedTenant] = {}
        try:
            if not self.fs.exists(self.tenants_root):
                return parked
            names = self.fs.listdir(self.tenants_root)
        except OSError as exc:
            self.status.latch("state scan", exc)
            return parked
        for name in names:
            directory = os.path.join(self.tenants_root, name)
            identity = TenantPersistence.read_identity(directory, self.fs)
            if identity is None:
                self.status.note(
                    f"state dir entry {name!r} has no readable identity; "
                    "skipped"
                )
                continue
            persistence = TenantPersistence(
                directory,
                str(identity["tenant"]),
                str(identity["system"]),
                config=self.config,
                fs=self.fs,
                status=self.status,
            )
            bundle = persistence.load_parked()
            if bundle is not None:
                bundle = dc_replace(bundle, parked_at=time.monotonic())
                parked[bundle.tenant_id] = bundle
        return parked
