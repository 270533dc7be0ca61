"""Configuration for the multi-tenant ingest service.

One object describes everything the service needs: per-tenant bounds
(queue capacity, shed policy, restart budget), lifecycle knobs (idle
eviction, drain timeout), global memory governance, and the listener
endpoints.  Per-tenant knobs deliberately reuse the vocabulary of
:class:`~repro.resilience.backpressure.BackpressureConfig` — a tenant is
a bounded pipeline run that never ends, and either config hands
:class:`~repro.resilience.shedding.BoundedIngest`, the one door both
admit through, the same two fields (``max_buffer``, ``shed_policy``).
The door's watermarks and its sustained-overload latch are constants of
:mod:`repro.resilience.backpressure`, and the shed policy's duplicate
lookback is ``threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.filtering import DEFAULT_THRESHOLD
from ..resilience.shedding import SHED_DECISIONS

#: ``fault_hook(tenant_id, record)`` is called on each record, once and in
#: order, ahead of the worker batch's kernel call; raising simulates a
#: tenant worker crash on that record (the soak harness and the isolation
#: tests inject deterministic crash schedules here).
FaultHook = Callable[[str, Any], None]


@dataclass
class ServiceConfig:
    """Knobs for an :class:`~repro.service.service.IngestService`.

    Parameters mirror the bounded pipeline where they overlap; the new
    ones govern the long-lived shape: supervision, quarantine, idle
    eviction, and the global memory budget shared by all tenants.
    """

    # -- listeners --------------------------------------------------------
    host: str = "127.0.0.1"
    tcp_port: int = 0          #: 0 = ephemeral (bound port is reported)
    udp_port: int = 0          #: 0 = ephemeral; None disables via enable_udp
    stats_port: int = 0        #: 0 = ephemeral
    enable_udp: bool = True
    year: int = 2005           #: year of a new tenant's first BSD-syslog stamp

    # -- per-tenant pipeline ----------------------------------------------
    threshold: float = DEFAULT_THRESHOLD
    max_buffer: int = 1024     #: per-tenant ingest queue capacity
    service_batch: int = 64    #: records a tenant worker serves per wakeup
    shed_policy: str = "priority"
    dead_letter_capacity: int = 1000
    alert_tail: int = 256      #: retained newest alerts per tenant (counts
                               #: are exact regardless; see ServiceAlertSink)
    #: Per-tenant online prediction: ``True`` enables the streaming
    #: correlation miner + predictor ensemble with defaults, a
    #: :class:`~repro.streaming.PredictionConfig` customizes it, and
    #: falsy (the default) keeps prediction off — tenants then never
    #: import the streaming package (or numpy).
    predict: Any = None

    # -- supervision / quarantine ----------------------------------------
    restart_budget: int = 3    #: worker crashes tolerated before quarantine
    breaker_threshold: int = 5     #: consecutive crashes that open the breaker
    breaker_reset: float = 2.0     #: seconds before a half-open probe
    checkpoint_every: int = 2000   #: records between tenant snapshots

    # -- durability -------------------------------------------------------
    #: Directory for crash-durable tenant state (``None`` = in-memory
    #: only).  With a state dir, every tenant checkpoint and parked
    #: bundle is persisted atomically and alerts/dead-letters are
    #: write-ahead journaled, so a SIGKILLed service resumes its tenants
    #: on restart (see :mod:`repro.service.persistence`).
    state_dir: Optional[str] = None
    #: Directory for per-tenant columnar alert stores (``None`` = off).
    #: Every tenant tees its alert flow into
    #: ``<store_dir>/<tenant_dirname(id)>`` — the same spill-to-disk
    #: column format ``repro study --store-dir`` writes — committed at
    #: checkpoint/park/drain barriers, so tenant analytics can run
    #: out-of-core over weeks of alerts the ``alert_tail`` ring long
    #: since dropped.
    store_dir: Optional[str] = None

    # -- lifecycle --------------------------------------------------------
    idle_ttl: float = 300.0    #: seconds of quiet before eviction
    housekeeping_interval: float = 0.25
    drain_timeout: float = 30.0

    # -- global memory governance ----------------------------------------
    #: Total queued records across every tenant before global pressure
    #: engages (ELEVATED at the door's high watermark, CRITICAL at the
    #: budget; see :class:`~repro.service.router.MemoryGovernor`).
    global_queue_budget: int = 65536

    # -- test instrumentation --------------------------------------------
    fault_hook: Optional[FaultHook] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for name in ("max_buffer", "service_batch", "dead_letter_capacity",
                     "alert_tail", "checkpoint_every", "global_queue_budget",
                     "breaker_threshold"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.restart_budget < 0:
            raise ValueError("restart_budget must be non-negative")
        if self.shed_policy not in SHED_DECISIONS:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; "
                f"known: {sorted(SHED_DECISIONS)}"
            )
        for name in ("idle_ttl", "housekeeping_interval", "drain_timeout",
                     "breaker_reset"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
