"""Fault tolerance for the collection/analysis pipeline.

The paper's collection paths are explicitly unreliable (Sections 3.1-3.2):
UDP syslog drops under contention, lines arrive garbled and interleaved,
collectors crash.  This package makes the pipeline survive everything the
paper catalogs, the way production HPC log-analytics stacks do:

* :mod:`~repro.resilience.faults` — seed-deterministic fault injectors
  (crash, stall, clock skew, duplication, reordering, truncation) that
  wrap any record stream;
* :mod:`~repro.resilience.retry` — backoff policies, per-channel circuit
  breakers, and :class:`~repro.resilience.retry.ResilientChannel`, the
  retrying wrapper around the transport models;
* :mod:`~repro.resilience.deadletter` — the bounded quarantine for
  records the pipeline refuses, with exact per-reason accounting;
* :mod:`~repro.resilience.checkpoint` — snapshot/restore of streaming
  pipeline state for exact crash/resume;
* :mod:`~repro.resilience.supervisor` — bounded-restart supervision of
  per-system pipeline workers, degrading to a partial result (never an
  unhandled exception) when the budget runs out;
* :mod:`~repro.resilience.backpressure` — bounded inter-stage queues with
  watermarks, credit-based flow control, and the overload monitor behind
  bounded-memory runs;
* :mod:`~repro.resilience.shedding` — priority-aware load-shedding
  policies that degrade in paper order: INFO chatter first, duplicate
  alerts next, tagged alerts never (they spill to the dead-letter queue),
  and :class:`~repro.resilience.shedding.BoundedIngest`, the bounded
  door the driver and the service's tenants both admit through.
"""

from .backpressure import (
    BackpressureConfig,
    BoundedQueue,
    CreditGate,
    OverloadMonitor,
    OverloadReport,
    PressureLevel,
    Watermarks,
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
    TransientFault,
    TruncateInjector,
    compose,
)
from .retry import (
    BreakerState,
    CircuitBreaker,
    ResilientChannel,
    RetryError,
    RetryPolicy,
    with_retry,
)
from .shedding import (
    BoundedIngest,
    ChatterOnlyShedPolicy,
    NoShedPolicy,
    PriorityShedPolicy,
    ShedAccounting,
    ShedPolicy,
    get_shed_policy,
)


def __getattr__(name: str):
    # The supervisor sits above the pipeline, which sits above the
    # simulation layer, which uses this package's dead-letter queue — so
    # importing it eagerly here would close an import cycle.  PEP 562
    # lazy loading keeps ``repro.resilience.PipelineSupervisor`` working
    # without the cycle.
    if name == "PipelineSupervisor":
        from .supervisor import PipelineSupervisor

        return PipelineSupervisor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
    "TransientFault",
    "TruncateInjector",
    "compose",
    "BreakerState",
    "CircuitBreaker",
    "ResilientChannel",
    "RetryError",
    "RetryPolicy",
    "with_retry",
    "BackpressureConfig",
    "BoundedQueue",
    "CreditGate",
    "OverloadMonitor",
    "OverloadReport",
    "PressureLevel",
    "Watermarks",
    "BoundedIngest",
    "ChatterOnlyShedPolicy",
    "NoShedPolicy",
    "PriorityShedPolicy",
    "ShedAccounting",
    "ShedPolicy",
    "get_shed_policy",
    "PipelineSupervisor",
]
