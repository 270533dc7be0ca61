"""Envelope parsing, tenant lifecycle, and global memory governance.

The wire protocol is one envelope per line (or datagram)::

    @<tenant>:<system> <native log line>

``tenant`` names the stream; ``system`` names the dialect (one of the
five paper systems) so the router knows which parser and tagger ruleset
the tenant's :class:`AlertPath` needs.  Lines arrive by the chunk
(:meth:`TenantRouter.ingest_lines`), are grouped per tenant in arrival
order, parsed by the tenant as the next stretch of its one stream
(:meth:`Tenant.parse_lines`; a damaged line is a corrupted record), and
offered to it once (:meth:`Tenant.offer_batch`, where the run is tagged).

Lines the router cannot attribute to a tenant at all (no envelope, an
unknown dialect, or a dialect clash with an existing tenant) go to a
*service-level* dead-letter queue under ``unroutable`` — the zero-silent-
loss contract extends to garbage.

:class:`MemoryGovernor` turns the sum of all tenants' queue depths into
a global :class:`PressureLevel` that each tenant's shed policy sees
alongside its own queue pressure, and latches *degraded mode* (coarse
statistics everywhere) after sustained overload — graceful degradation
instead of unbounded growth.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..logmodel.dialects import DIALECTS
from ..logmodel.record import LogRecord
from ..resilience.backpressure import (
    HIGH_FRACTION, LOW_FRACTION, SUSTAIN, PressureClock, PressureLevel,
)
from ..resilience.deadletter import DeadLetterQueue, REASON_UNROUTABLE
from ..systems.specs import SYSTEMS
from .config import ServiceConfig
from .persistence import TenantStateStore
from .tenant import ParkedTenant, Tenant


def parse_envelope(line: str) -> Optional[Tuple[str, str, str]]:
    """Split ``@tenant:system rest`` into its parts; ``None`` if the
    line carries no well-formed envelope."""
    if not line.startswith("@"):
        return None
    head, sep, rest = line.partition(" ")
    if not sep:
        return None
    tenant, colon, system = head[1:].partition(":")
    if not colon or not tenant or not system:
        return None
    return tenant, system, rest


def format_envelope(tenant: str, system: str, line: str) -> str:
    """The sender side of :func:`parse_envelope` (used by tests and the
    soak harness)."""
    return f"@{tenant}:{system} {line}"


def parse_native_line(line: str, system: str, year: int) -> LogRecord:
    """Parse one native-format line by the dialect table (never raises),
    in ``year``: stateless, no rollover (see :meth:`Tenant.parse_lines`)."""
    return DIALECTS[system].parse(line, year)


class MemoryGovernor:
    """Global queue-budget pressure with sustained-overload latching.

    Each tenant's queue is individually bounded, but 100 tenants at 80%
    of their individual bounds is still a global memory problem.  The
    governor maps total queued records against ``global_queue_budget``
    (ELEVATED at the door's high watermark fraction, CRITICAL at the
    budget, with hysteresis at the low one) — tenants shed against
    ``max(own pressure, global pressure)``, so global overload sheds
    chatter *everywhere* while tagged alerts still spill to dead-letter
    queues rather than vanish.  ``SUSTAIN`` consecutive overloaded
    samples latch degraded mode (coarse stats); the same count of calm
    samples clears it.  The rule is the bounded queue's
    :class:`~repro.resilience.backpressure.PressureClock`, over the
    budget's own rounding of the watermarks and set to clear.
    """

    def __init__(self, config: ServiceConfig):
        self.budget = config.global_queue_budget
        self.clock = PressureClock(
            high=max(1, int(self.budget * HIGH_FRACTION)),
            low=int(self.budget * LOW_FRACTION),
            limit=self.budget, sustain=SUSTAIN, clears=True,
        )
        self.degraded_entered = 0
        self._level = PressureLevel.NORMAL

    @property
    def degraded(self) -> bool:
        return self.clock.latched

    def level(self) -> PressureLevel:
        return self._level

    def sample(self, total_queued: int) -> PressureLevel:
        """Fold one housekeeping observation into the global level."""
        degraded = self.degraded
        self._level = self.clock.sample(total_queued)
        if self.degraded and not degraded:
            self.degraded_entered += 1
        return self._level

    def stats(self) -> dict:
        return {
            "budget": self.budget,
            "level": self._level.name,
            "degraded": self.degraded,
            "degraded_entered": self.degraded_entered,
        }


class TenantRouter:
    """Owns the tenant map: creation, routing, eviction, resurrection.

    All methods run on the event loop (no cross-thread access); the
    underlying shed/dead-letter primitives are additionally lock-safe so
    sharing them with helper threads (the stats server, tests) is sound.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.governor = MemoryGovernor(config)
        self.tenants: Dict[str, Tenant] = {}
        #: Durable backend (``--state-dir``); ``None`` = in-memory only.
        self.state_store = (
            TenantStateStore(config.state_dir, config)
            if config.state_dir is not None else None
        )
        #: The parked map seeds from disk: every tenant that left durable
        #: state in a previous process resurrects on its first line.
        self.parked: Dict[str, ParkedTenant] = (
            self.state_store.load_all()
            if self.state_store is not None else {}
        )
        #: Service-level quarantine for lines owned by no tenant.
        self.unroutable = DeadLetterQueue(capacity=config.dead_letter_capacity)
        self.lines_seen = 0
        self.tenants_created = 0

    # -- routing -----------------------------------------------------------

    def ingest_line(self, line: str) -> None:
        """Route one wire line (the one-element :meth:`ingest_lines`)."""
        self.ingest_lines((line,))

    def ingest_lines(self, lines: Iterable[str]) -> None:
        """Route a chunk of wire lines: each to its tenant (created or
        resurrected on first sight) or to the unroutable dead-letter
        queue; then one offer per tenant, its records in arrival order."""
        runs: Dict[str, List[str]] = {}
        for line in lines:
            self.lines_seen += 1
            envelope = parse_envelope(line)
            if envelope is None:
                self._unroutable(line, "no envelope")
                continue
            tenant_id, system, rest = envelope
            if system not in SYSTEMS:
                self._unroutable(line, f"unknown system {system!r}")
                continue
            tenant = self.tenants.get(tenant_id)
            if tenant is None:
                tenant = self._materialize(tenant_id, system)
            elif tenant.system != system:
                self._unroutable(
                    line,
                    f"dialect clash: tenant {tenant_id!r} is "
                    f"{tenant.system}, line says {system}",
                )
                continue
            runs.setdefault(tenant_id, []).append(rest)
        for tenant_id, native in runs.items():
            tenant = self.tenants[tenant_id]
            tenant.offer_batch(tenant.parse_lines(native))

    def _unroutable(self, line: str, detail: str) -> None:
        # Wrap the raw line in a minimal corrupted record so the letter
        # round-trips through the standard dead-letter machinery.
        record = LogRecord(
            timestamp=0.0, source="", facility="", body=line[:512],
            corrupted=True, raw=line[:512],
        )
        self.unroutable.put(record, REASON_UNROUTABLE, detail)

    def _materialize(self, tenant_id: str, system: str) -> Tenant:
        parked = self.parked.pop(tenant_id, None)
        if parked is not None and parked.system != system:
            # A parked tenant resurrected under a different dialect is a
            # new stream; the old checkpoint cannot seed it.
            self.parked[tenant_id] = parked
            parked = None
        tenant = Tenant(
            tenant_id, system, self.config,
            governor=self.governor, parked=parked,
            persistence=(
                self.state_store.for_tenant(tenant_id, system)
                if self.state_store is not None else None
            ),
        )
        if parked is None:
            self.tenants_created += 1
        tenant.start()
        self.tenants[tenant_id] = tenant
        return tenant

    # -- lifecycle (called from the service's housekeeping task) -----------

    def total_queued(self) -> int:
        return sum(len(t.queue) for t in self.tenants.values())

    def evict_idle(self, now: Optional[float] = None) -> List[str]:
        """Park every evictable tenant; returns the evicted ids."""
        now = time.monotonic() if now is None else now
        evicted = []
        for tenant_id in list(self.tenants):
            tenant = self.tenants[tenant_id]
            if tenant.evictable(now):
                self.parked[tenant_id] = tenant.park()
                del self.tenants[tenant_id]
                evicted.append(tenant_id)
        return evicted

    def set_coarse_stats(self, coarse: bool) -> None:
        for tenant in self.tenants.values():
            tenant.path.stats_collector.coarse = coarse

    async def drain(self) -> None:
        """Flush every live tenant's pending records."""
        for tenant in list(self.tenants.values()):
            await tenant.drain()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        durability = (
            self.state_store.status.as_dict()
            if self.state_store is not None else None
        )
        return {
            "durability": durability,
            "lines_seen": self.lines_seen,
            "tenants_live": len(self.tenants),
            "tenants_parked": len(self.parked),
            "tenants_created": self.tenants_created,
            "tenants_quarantined": sum(
                1 for t in self.tenants.values() if t.quarantined
            ),
            "total_queued": self.total_queued(),
            "unroutable": self.unroutable.quarantined,
            "governor": self.governor.stats(),
        }
