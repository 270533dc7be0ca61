"""Fault tolerance for the collection/analysis pipeline.

The paper's collection paths are explicitly unreliable (Sections 3.1-3.2):
UDP syslog drops under contention, lines arrive garbled and interleaved,
collectors crash.  This package makes the pipeline survive everything the
paper catalogs, the way production HPC log-analytics stacks do:

* :mod:`~repro.resilience.faults` — seed-deterministic fault injectors
  (crash, stall, clock skew, duplication, reordering, truncation) that
  wrap any record stream;
* :mod:`~repro.resilience.retry` — the per-channel circuit breaker each
  ingest-service tenant consults before admitting a run of records;
* :mod:`~repro.resilience.deadletter` — the bounded quarantine for
  records the pipeline refuses, with exact per-reason accounting;
* :mod:`~repro.resilience.checkpoint` — snapshot/restore of streaming
  pipeline state for exact crash/resume;
* :mod:`~repro.resilience.supervisor` — :func:`supervise`, a bounded
  retry loop around ``api.run_stream``'s resume path, degrading to a
  partial result (never an unhandled exception) when the budget runs
  out; import it from its module (it sits above :mod:`repro.api`);
* :mod:`~repro.resilience.backpressure` — the bounded queue with its
  watermarks, credit-based flow control and the one pressure clock, and
  the overload report of bounded-memory runs;
* :mod:`~repro.resilience.shedding` — the load-shedding decision table,
  which degrades in paper order: INFO chatter first, duplicate alerts
  next, tagged alerts never (they spill to the dead-letter queue), and
  :class:`~repro.resilience.shedding.BoundedIngest`, the bounded door
  the driver and the service's tenants both admit through.
"""

from .backpressure import (
    BackpressureConfig,
    BoundedQueue,
    OverloadReport,
    PressureClock,
    PressureLevel,
)
from .checkpoint import CheckpointManager, PipelineCheckpoint
from .deadletter import DeadLetter, DeadLetterQueue, DeadLetterSnapshot
from .faults import (
    ClockSkewInjector,
    CollectorCrash,
    CrashInjector,
    DuplicateInjector,
    FaultConfig,
    FaultError,
    FaultPlan,
    RandomFaultInjector,
    ReorderInjector,
    StallTimeout,
    TruncateInjector,
    compose,
)
from .retry import BreakerState, CircuitBreaker
from .shedding import SHED_DECISIONS, BoundedIngest, ShedPolicy

__all__ = [
    "CheckpointManager",
    "PipelineCheckpoint",
    "DeadLetter",
    "DeadLetterQueue",
    "DeadLetterSnapshot",
    "ClockSkewInjector",
    "CollectorCrash",
    "CrashInjector",
    "DuplicateInjector",
    "FaultConfig",
    "FaultError",
    "FaultPlan",
    "RandomFaultInjector",
    "ReorderInjector",
    "StallTimeout",
    "TruncateInjector",
    "compose",
    "BreakerState",
    "CircuitBreaker",
    "BackpressureConfig",
    "BoundedQueue",
    "OverloadReport",
    "PressureClock",
    "PressureLevel",
    "BoundedIngest",
    "SHED_DECISIONS",
    "ShedPolicy",
]
