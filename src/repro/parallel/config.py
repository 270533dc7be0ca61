"""Configuration for the parallel sharded-tagging execution layer.

One frozen object describes how a run fans tagging out to worker
processes: how many workers, how many records per shipped batch, and how
a crashed worker's batch is handled; how many batches may be in flight
at once (the memory bound) and which multiprocessing start method to use
follow from those and the platform.  It travels through
:func:`repro.api.run_stream` and the CLI (``study
--workers/--batch-size``) the same way
:class:`~repro.resilience.backpressure.BackpressureConfig` does.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass


def default_workers() -> int:
    """Worker count when unspecified: one per CPU, minimum two.

    Two is the floor so that ``ParallelConfig()`` exercises genuine
    inter-process behavior even on a single-core host — there is no
    speedup to be had there, but the semantics must hold everywhere.
    """
    return max(2, os.cpu_count() or 1)


def default_mp_context() -> str:
    """``fork`` where the platform offers it (cheap worker startup, and
    the rulesets are compiled read-only before forking), else ``spawn``."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


@dataclass(frozen=True)
class ParallelConfig:
    """How to shard tagging across worker processes.

    Attributes
    ----------
    workers:
        Worker process count; ``0`` means :func:`default_workers`.
    batch_size:
        Records per batch shipped to a worker.  Larger batches amortize
        pickling; smaller batches bound the damage of a worker crash and
        keep the order-preserving merge shallow.
    retry_failed_batches:
        When a worker process dies mid-batch, replay the batch **exactly
        once** through an in-parent serial tagger (the supervisor path).
        When ``False`` the crash propagates as
        :class:`~repro.parallel.sharded.WorkerCrashError`.
    enable_test_faults:
        Test hook: workers recognize the kill sentinel
        (:data:`~repro.parallel.sharded.KILL_SENTINEL`) and die mid-batch,
        so the fault-path suite can exercise real process crashes
        deterministically.  Never enabled outside tests.
    """

    workers: int = 0
    batch_size: int = 1024
    retry_failed_batches: bool = True
    enable_test_faults: bool = False

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else default_workers()

    def resolved_inflight(self) -> int:
        """Batches submitted but not yet yielded, at most: two per
        worker.  This bounds parent-side memory — ``resolved_inflight()
        * batch_size`` records buffered for the order-preserving merge,
        no matter how fast the source is."""
        return 2 * self.resolved_workers()
