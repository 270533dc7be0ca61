"""Configuration for the multi-tenant ingest service.

One object describes everything the service needs: per-tenant bounds
(queue capacity, shed policy, restart budget), lifecycle knobs (idle
eviction, drain timeout), global memory governance, and the listener
endpoints.  Per-tenant knobs deliberately reuse the vocabulary of
:class:`~repro.resilience.backpressure.BackpressureConfig` — a tenant is
a bounded pipeline run that never ends, and the five they share
(``max_buffer``, ``high_fraction``, ``low_fraction``, ``shed_policy``,
``dedup_window``) are exactly what either config hands
:class:`~repro.resilience.shedding.BoundedIngest`, the one door both
admit through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.filtering import DEFAULT_THRESHOLD

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
    year: int = 2005           #: reference year for BSD-syslog timestamps

    # -- per-tenant pipeline ----------------------------------------------
    threshold: float = DEFAULT_THRESHOLD
    max_buffer: int = 1024     #: per-tenant ingest queue capacity
    high_fraction: float = 0.8
    low_fraction: float = 0.5
    service_batch: int = 64    #: records a tenant worker serves per wakeup
    shed_policy: str = "priority"
    dedup_window: Optional[float] = None
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
    #: engages (ELEVATED at high_fraction, CRITICAL at the budget).
    global_queue_budget: int = 65536
    #: Consecutive overloaded housekeeping samples before the service
    #: enters degraded mode (coarse stats on every tenant).
    sustain: int = 8

    # -- test instrumentation --------------------------------------------
    fault_hook: Optional[FaultHook] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for name in ("max_buffer", "service_batch", "dead_letter_capacity",
                     "alert_tail", "checkpoint_every", "global_queue_budget",
                     "sustain", "breaker_threshold"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.restart_budget < 0:
            raise ValueError("restart_budget must be non-negative")
        if not 0.0 < self.low_fraction < self.high_fraction <= 1.0:
            raise ValueError(
                "need 0 < low_fraction < high_fraction <= 1, got "
                f"{self.low_fraction}/{self.high_fraction}"
            )
        for name in ("idle_ttl", "housekeeping_interval", "drain_timeout",
                     "breaker_reset"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
