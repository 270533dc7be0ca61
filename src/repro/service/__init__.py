"""Long-lived multi-tenant ingest service (the driver that never ends).

Everything before this package ran one-shot batches: a driver pulls a
finite stream through an :class:`~repro.engine.path.AlertPath` and
returns a :class:`~repro.engine.result.PipelineResult`.  The paper,
though, frames filtering and tagging as *operational* tools over live
supercomputer streams (Section 5), and LogMaster-style deployments
assume a continuously-ingesting daemon fed by thousands of sources.
This package is that daemon:

* :class:`~repro.service.service.IngestService` — asyncio UDP/TCP
  syslog listeners plus a stats endpoint, orchestrating many concurrent
  tenant streams;
* :class:`~repro.service.tenant.Tenant` — one tenant's complete,
  isolated pipeline state: its own :class:`AlertPath` (filter clocks,
  severity tab, stats), :class:`BoundedQueue` backpressure,
  :class:`ShedPolicy`, :class:`DeadLetterQueue`, circuit breaker, and
  supervised worker task with a bounded restart budget;
* :class:`~repro.service.router.TenantRouter` — envelope parsing and
  tenant lifecycle (lazy creation, idle eviction with checkpoint
  handoff, resurrection, global memory pressure);
* :mod:`~repro.service.stats` — the live stats/alerts endpoint.

The robustness contract, enforced by ``scripts/soak_service.py`` and
``tests/service/``:

1. **Fault isolation** — one tenant's storm, malformed flood, or
   crashing worker cannot stall or corrupt another tenant's alerts.
2. **Zero silent alert loss** — every record the service declines is
   either a counted shed (chatter/duplicate classes only) or a
   dead-letter with a reason; tagged alerts are never dropped without
   accounting.  Conservation is checkable per tenant:
   ``received == shed + refused + processed`` and
   ``expected tagged == reported + dead-lettered + counted shed``.
3. **Graceful degradation** — global memory pressure coarsens stats and
   sheds chatter per tenant instead of growing without bound; quarantine
   (budget exhausted) emits a final accounting snapshot first.
4. **Clean drain** — SIGTERM flushes every tenant's pending records and
   publishes final per-tenant accounting.
"""

from .config import ServiceConfig
from .accounting import TenantCounters
from .tenant import Tenant
from .router import TenantRouter, parse_envelope
from .service import IngestService
from .stats import query_stats

__all__ = [
    "IngestService",
    "ServiceConfig",
    "Tenant",
    "TenantCounters",
    "TenantRouter",
    "parse_envelope",
    "query_stats",
]
