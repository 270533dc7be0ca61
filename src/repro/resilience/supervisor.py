"""Per-system pipeline supervision: restart, resume, degrade gracefully.

:func:`supervise` turns a crash-prone run into one that always returns.
It is a bounded retry loop around :func:`repro.api.run_stream`'s resume
path: when an attempt dies mid-stream — an injected
:class:`~repro.resilience.faults.CollectorCrash`, a stall timeout, or any
real bug — the next attempt re-presents the stream and passes the latest
checkpoint back as ``resume_from``, at most ``restart_budget`` times.
Everything a resume needs (restoring the path, skipping the consumed
prefix, truncating a columnar store back to the checkpoint's watermark,
loading and completing a ``state_dir``) is ``run_stream``'s, so a
supervised run composes with ``store_dir`` and ``state_dir`` exactly as
an unsupervised one does.  Because the stream is deterministic and fault
mutation is replayed identically (see
:class:`~repro.resilience.faults.FaultPlan`), a resumed run lands in a
state byte-identical to an uninterrupted one.

When the budget is exhausted the supervisor *degrades* instead of
raising: the result is what ``run_stream`` reports for the last
checkpoint with nothing left to read (an empty run if no checkpoint was
taken), flagged ``degraded`` and carrying the failure log — the contract
production log-analytics stacks keep (Park et al., "Big Data Meets HPC
Log Analytics"; Zhou et al., "LogMaster"): keep serving what you have,
report what you lost.  A ``state_dir`` is never marked complete then, so
re-invoking the same run resumes it.

A bounded run needs nothing from the loop: its overload tallies ride the
checkpoint, so a resumed attempt reports exactly the records its stats
cover.  A degraded partial reports the last checkpoint's tallies
(:meth:`~repro.engine.drivers.BoundedDriver.report_at`), not the one
empty tick its pump takes over nothing.
"""

from __future__ import annotations

from typing import List

from .. import api as _pipeline
from ..engine.drivers import BoundedDriver
from ..engine.stages import SourceFactory
from .checkpoint import CheckpointManager
from .deadletter import DeadLetterQueue
from .faults import FaultPlan

#: The ``run_stream`` keywords that shape a degraded partial (with
#: ``backpressure`` it is bounded, and its report is the checkpoint's
#: tallies).  The rest (parallel tagging, durable state, the generated
#: log) only matter to a live attempt, and a ``state_dir`` must stay
#: resumable.
_PARTIAL_KEYWORDS = ("threshold", "predict", "store_dir", "backpressure")


def supervise(
    source_factory: SourceFactory,
    system: str,
    *,
    restart_budget: int,
    checkpoint_every: int,
    faults=None,
    **run,
) -> "_pipeline.PipelineResult":
    """Run a replayable record stream to completion under supervision;
    never raises for worker failures — worst case returns a degraded
    partial.

    ``source_factory`` must re-present the *same* deterministic stream
    from the beginning on every call.  ``faults`` (a
    :class:`~repro.resilience.faults.FaultConfig`) is injected into every
    presentation.  ``run`` takes any other :func:`repro.api.run_stream`
    keyword; ``dead_letters``, ``checkpointer`` and ``resume_from``
    belong to the loop.
    """
    if restart_budget < 0:
        raise ValueError("restart_budget must be non-negative")
    plan = FaultPlan(faults) if faults is not None else None
    manager = CheckpointManager(every=checkpoint_every)
    dead_letters = DeadLetterQueue()
    failure_log: List[str] = []

    for attempt in range(restart_budget + 1):
        if manager.latest is None:
            # Resuming rolls the queue back to the checkpoint; a restart
            # from scratch must drop what the crashed attempt quarantined,
            # or the records it meets again are counted twice.
            dead_letters.restore(None)
        records = source_factory()
        if plan is not None:
            records = plan.wrap(records)
        try:
            result = _pipeline.run_stream(
                records, system, dead_letters=dead_letters,
                checkpointer=manager, resume_from=manager.latest, **run,
            )
        except Exception as exc:  # worker died: restart from checkpoint
            failure_log.append(
                f"attempt {attempt + 1}: {type(exc).__name__}: {exc}"
            )
            continue
        result.restarts = attempt
        result.failure_log = failure_log
        return result

    # The partial rolls the dead-letter queue back to the checkpoint, and
    # quarantines from the failed attempts after it would otherwise exist
    # only in the results the crashes destroyed: snapshot them first.
    final_dead_letters = dead_letters.snapshot()
    failure_log.append(
        "final dead-letter accounting at budget exhaustion: "
        + dead_letters.summary()
    )
    if manager.latest is None:
        dead_letters.restore(None)
    result = _pipeline.run_stream(
        (), system, dead_letters=dead_letters, resume_from=manager.latest,
        **{key: run[key] for key in _PARTIAL_KEYWORDS if key in run},
    )
    if run.get("backpressure") is not None:
        result.overload = BoundedDriver(run["backpressure"]).report_at(
            manager.latest
        )
    result.degraded = True
    result.restarts = restart_budget
    result.failure_log = failure_log
    result.final_dead_letters = final_dead_letters
    return result
