"""Per-system pipeline supervision: restart, resume, degrade gracefully.

The supervisor is the piece that turns crash-prone workers into a
pipeline that always returns: it runs one system's generate/tag/filter
worker, and when the worker dies mid-stream — an injected
:class:`~repro.resilience.faults.CollectorCrash`, a stall timeout, or any
real bug — it restarts the worker from the latest checkpoint, at most
``restart_budget`` times.  Because the generated stream is deterministic
and fault mutation is replayed identically (see
:class:`~repro.resilience.faults.FaultPlan`), a resumed run lands in a
state byte-identical to an uninterrupted one.

When the budget is exhausted the supervisor *degrades* instead of
raising: it builds a partial :class:`~repro.api.PipelineResult` from
the last checkpoint (or an empty one), flags it ``degraded``, and attaches
the failure log — the contract production log-analytics stacks keep
(Park et al., "Big Data Meets HPC Log Analytics"; Zhou et al.,
"LogMaster"): keep serving what you have, report what you lost.
"""

from __future__ import annotations

from typing import List, Optional

from .. import api as _pipeline
from ..core.filtering import DEFAULT_THRESHOLD
from ..engine.path import AlertPath
from ..simulation.generator import LogGenerator
from ..parallel.config import ParallelConfig
from .backpressure import BackpressureConfig, OverloadMonitor, OverloadReport
from .checkpoint import CheckpointManager, PipelineCheckpoint
from .deadletter import DeadLetterQueue
from .faults import FaultConfig, FaultPlan
from .shedding import ShedAccounting


class PipelineSupervisor:
    """Supervised execution of per-system pipeline workers.

    Parameters
    ----------
    restart_budget:
        Maximum restarts per system after the initial attempt.
    checkpoint_every:
        Snapshot interval in input records; on restart at most this many
        records are replayed.
    dead_letter_capacity:
        Bound on retained quarantined records per system.
    store:
        Optional durable checkpoint backend
        (:class:`~repro.resilience.durability.CheckpointStore`): every
        snapshot also persists, and a *fresh* supervisor resumes from
        the newest on-disk checkpoint — restart-from-checkpoint then
        survives whole-process death, not just worker death.
    """

    def __init__(
        self,
        restart_budget: int = 3,
        checkpoint_every: int = 2000,
        dead_letter_capacity: int = 1000,
        store=None,
    ):
        if restart_budget < 0:
            raise ValueError("restart_budget must be non-negative")
        self.restart_budget = restart_budget
        self.checkpoint_every = checkpoint_every
        self.dead_letter_capacity = dead_letter_capacity
        self.store = store

    def run_records(
        self,
        source_factory,
        system: str,
        threshold: float = DEFAULT_THRESHOLD,
        faults: Optional[FaultConfig] = None,
        backpressure: Optional[BackpressureConfig] = None,
        parallel: Optional[ParallelConfig] = None,
        predict=None,
    ) -> "_pipeline.PipelineResult":
        """Run any replayable record stream to completion under
        supervision; never raises for worker failures — worst case
        returns a degraded partial.

        ``source_factory`` is a :data:`~repro.engine.stages.SourceFactory`:
        each call must re-present the *same* deterministic stream from
        the beginning (a resumed attempt skips the consumed prefix).
        Fault mutation is replayed identically per attempt (see
        :class:`~repro.resilience.faults.FaultPlan`), so a resumed run
        lands byte-identical to an uninterrupted one.

        With ``backpressure``, every attempt runs bounded, and the
        overload monitor and shed accounting are shared across attempts:
        the final (possibly degraded) result reports the whole supervised
        run's overload behavior, not just the last attempt's.  With
        ``parallel``, every attempt shards tagging across worker
        processes; the supervisor's checkpoints then sit at the sharded
        driver's batch barriers.
        """
        plan = FaultPlan(faults) if faults is not None else None
        manager = CheckpointManager(
            every=self.checkpoint_every, store=self.store
        )
        dead_letters = DeadLetterQueue(capacity=self.dead_letter_capacity)
        if backpressure is not None:
            backpressure = backpressure.with_runtime(
                monitor=backpressure.monitor
                or OverloadMonitor(sustain=backpressure.sustain),
                accounting=backpressure.accounting or ShedAccounting(),
            )
        failure_log: List[str] = []
        checkpoint: Optional[PipelineCheckpoint] = None
        if self.store is not None:
            # A previous *process* may have died mid-run: its durable
            # checkpoint is this run's starting point.
            checkpoint = self.store.load()

        for attempt in range(self.restart_budget + 1):
            records = source_factory()
            if plan is not None:
                records = plan.wrap(records)
            try:
                result = _pipeline.run_stream(
                    records, system, threshold=threshold,
                    dead_letters=dead_letters, checkpointer=manager,
                    resume_from=checkpoint, backpressure=backpressure,
                    parallel=parallel, predict=predict,
                )
            except Exception as exc:  # worker died: restart from checkpoint
                failure_log.append(
                    f"attempt {attempt + 1}: {type(exc).__name__}: {exc}"
                )
                checkpoint = manager.latest
                continue
            result.restarts = attempt
            result.failure_log = failure_log
            if self.store is not None:
                self.store.mark_complete()
            return result

        return self._degraded_result(
            system, threshold, checkpoint, dead_letters, failure_log,
            backpressure=backpressure, predict=predict,
        )

    def run_system(
        self,
        system: str,
        scale: float = 1e-4,
        seed: int = 2007,
        threshold: float = DEFAULT_THRESHOLD,
        incident_scale: float = 1.0,
        faults: Optional[FaultConfig] = None,
        backpressure: Optional[BackpressureConfig] = None,
        parallel: Optional[ParallelConfig] = None,
        predict=None,
        **generator_kwargs,
    ) -> "_pipeline.PipelineResult":
        """Generate one system's log (afresh per attempt — the generator
        is deterministic) and run it via :meth:`run_records`."""
        holder = {}

        def factory():
            generator = LogGenerator(
                system, scale=scale, seed=seed,
                incident_scale=incident_scale, **generator_kwargs,
            )
            holder["generated"] = generator.generate()
            return holder["generated"].records

        result = self.run_records(
            factory, system, threshold=threshold, faults=faults,
            backpressure=backpressure, parallel=parallel, predict=predict,
        )
        if not result.degraded:
            result.generated = holder.get("generated")
        return result

    def _degraded_result(
        self,
        system: str,
        threshold: float,
        checkpoint: Optional[PipelineCheckpoint],
        dead_letters: DeadLetterQueue,
        failure_log: List[str],
        backpressure: Optional[BackpressureConfig] = None,
        predict=None,
    ) -> "_pipeline.PipelineResult":
        """The partial result covering the stream up to the last
        checkpoint (or nothing, if the worker never survived one): what
        a path resumed from that checkpoint would report if its stream
        ended there, prediction included.

        Building that path rolls the dead-letter queue back to the
        checkpoint; quarantines from the failed attempts after that point
        would otherwise exist only in the result the crash destroyed.
        Snapshot the live accounting *first* and carry it on the degraded
        result (``final_dead_letters``), so post-mortem conservation
        checks can still reconcile every record the run refused.
        """
        final_dead_letters = dead_letters.snapshot()
        failure_log.append(
            "final dead-letter accounting at budget exhaustion: "
            + dead_letters.summary()
        )
        prediction = None
        if predict:
            from ..streaming import prediction_stage

            prediction = prediction_stage(predict)
        path = AlertPath(
            system, threshold, dead_letters, resume_from=checkpoint,
            prediction=prediction,
        )
        if checkpoint is None:
            dead_letters.restore(None)
        overload = None
        if backpressure is not None:
            # The shared monitor/accounting saw every attempt; surface the
            # overload picture even though the run never completed.
            overload = OverloadReport.from_parts(
                monitor=backpressure.monitor,
                accounting=backpressure.accounting,
            )
        return path.result(
            degraded=True,
            restarts=self.restart_budget,
            failure_log=failure_log,
            overload=overload,
            final_dead_letters=final_dead_letters,
        )
