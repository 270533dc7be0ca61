"""The single source of truth for what composes with what.

Before the engine, composition rules lived in three places — guard
clauses in ``run_stream``, guard clauses in ``run_system``, and an
ad-hoc argument check in the CLI — and they disagreed about wording and
occasionally about substance.  This module is the one table everything
consults: :func:`build_driver` picks the execution driver for a knob
combination (every combination is legal), and :func:`capability_lines`
renders the table for ``--help`` text and docs.

Every driver now supports checkpoint/resume and dead-letter quarantine;
the columns that differ are *where* the consistency barrier sits and how
strong the equivalence-to-serial guarantee is:

========================  =================  ====================
driver                    barrier            equivalence
========================  =================  ====================
serial                    every record       (reference)
sharded                   batch boundary     byte-identical
bounded                   drained queues     shedding tolerance
bounded-sharded           drained queues     shedding tolerance
service                   drained queues     shedding tolerance
serial-predict            every record       byte-identical
========================  =================  ====================

The ``service`` row is not selected by :func:`build_driver` — it is the
long-lived multi-tenant daemon (``repro serve``), which runs one
shedding-tolerant path *per tenant* and checkpoints each tenant at its
own drained-queue barrier.  ``serial-predict`` likewise is a benchmark
row, not a separate driver: the serial schedule with the online
prediction stage observing the sink, whose cost the perf gate ratchets
against plain serial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..parallel.config import ParallelConfig
from ..resilience.backpressure import BackpressureConfig
from .drivers import BoundedDriver, Driver, SerialDriver, ShardedDriver

#: Equivalence classes a driver can promise relative to the serial run.
BYTE_IDENTICAL = "byte-identical"
SHED_TOLERANCE = "shedding-tolerance"


@dataclass(frozen=True)
class DriverCapabilities:
    """One row of the composition table."""

    name: str
    #: Where a checkpoint is consistent: ``"record"`` (after any record),
    #: ``"batch"`` (at batch boundaries; in-flight worker batches have
    #: touched no path state), or ``"drained-queues"`` (only when every
    #: bounded queue is empty).
    checkpoint_barrier: str
    #: Output guarantee relative to an identical serial run.
    equivalence: str
    notes: str

    def line(self) -> str:
        return (
            f"{self.name:<16} checkpoint at {self.checkpoint_barrier:<14} "
            f"{self.equivalence:<19} {self.notes}"
        )


CAPABILITY_TABLE = {
    caps.name: caps
    for caps in (
        DriverCapabilities(
            name="serial",
            checkpoint_barrier="record",
            equivalence=BYTE_IDENTICAL,
            notes="the reference schedule; batches cut at the barrier",
        ),
        DriverCapabilities(
            name="sharded",
            checkpoint_barrier="batch",
            equivalence=BYTE_IDENTICAL,
            notes="tagging in worker processes; order-preserving merge",
        ),
        DriverCapabilities(
            name="bounded",
            checkpoint_barrier="drained-queues",
            equivalence=SHED_TOLERANCE,
            notes="bounded ingest queue, credit flow control, load shedding",
        ),
        DriverCapabilities(
            name="bounded-sharded",
            checkpoint_barrier="drained-queues",
            equivalence=SHED_TOLERANCE,
            notes="sharded tagging at arrival, ahead of the bounded ingest queue",
        ),
        DriverCapabilities(
            name="service",
            checkpoint_barrier="drained-queues",
            equivalence=SHED_TOLERANCE,
            notes="long-lived multi-tenant ingest; per-tenant isolation",
        ),
        DriverCapabilities(
            name="serial-predict",
            checkpoint_barrier="record",
            equivalence=BYTE_IDENTICAL,
            notes="serial schedule plus the online prediction stage",
        ),
    )
}


def build_driver(
    parallel: Optional[ParallelConfig] = None,
    backpressure: Optional[BackpressureConfig] = None,
) -> Driver:
    """The execution driver for a knob combination.  Every combination is
    legal: parallelism, backpressure, and checkpointing are orthogonal."""
    if backpressure is not None:
        return BoundedDriver(backpressure, parallel=parallel)
    if parallel is not None:
        return ShardedDriver(parallel)
    return SerialDriver()


def capability_lines() -> List[str]:
    """The composition table rendered for ``--help`` text and docs."""
    header = (
        f"{'driver':<16} {'checkpoint barrier':<28} "
        f"{'vs serial':<19} notes"
    )
    return [header] + [
        caps.line() for caps in CAPABILITY_TABLE.values()
    ] + [
        "every barrier above also persists: pass --state-dir and each "
        "snapshot is written",
        "through the durable checkpoint store (WAL + atomic generations; "
        "see repro.resilience.durability),",
        "so an interrupted run -- SIGKILL included -- resumes from disk "
        "at the same barrier.",
    ]
