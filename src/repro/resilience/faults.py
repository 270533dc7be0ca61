"""Composable, seed-deterministic fault injectors for record streams.

Section 3.1 documents an unreliable collection path — UDP syslog drops
under contention, lines arrive garbled, interleaved, and mis-timestamped —
and any collector process can die mid-stream.  This module reproduces
those failure modes as *injectable* faults so the rest of the library can
be tested against them:

* **record mutators** rewrite the stream in place — duplicates,
  out-of-order delivery, truncation, clock-skew episodes;
* **delivery faults** abort the stream — a collector crash
  (:class:`CollectorCrash`) or a stall that exceeds its timeout
  (:class:`StallTimeout`) — which
  :func:`~repro.resilience.supervisor.supervise` answers by resuming
  from the last checkpoint;
* **storage faults** (:class:`FaultyFilesystem`) fail or kill the
  durability layer's writes.

Everything is driven by explicit rngs seeded from a
:class:`FaultConfig`, so a fault schedule is exactly reproducible:
re-wrapping the same deterministic stream with the same config mutates it
identically, which is what lets the supervisor resume from a checkpoint
after a crash and land in a byte-identical final state.
"""

from __future__ import annotations

import errno
import os
import signal
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..logmodel.record import LogRecord
from .durability import RealFilesystem, _AppendHandle


class FaultError(RuntimeError):
    """Base class for injected delivery failures."""


class CollectorCrash(FaultError):
    """The collector process died mid-stream (records so far were stored)."""

    def __init__(self, message: str, records_delivered: int = 0):
        super().__init__(message)
        self.records_delivered = records_delivered


class StallTimeout(FaultError):
    """A stall exceeded its timeout budget; the read was abandoned."""


@dataclass(frozen=True)
class FaultConfig:
    """One reproducible fault schedule.

    Rates are per-record probabilities.  ``crash_at`` plants a single
    deterministic crash after exactly that many records (it fires once,
    mirroring a real crash: the restarted collector does not re-die at the
    same spot); ``crash_rate``/``stall_rate`` draw crash/stall points
    stochastically but deterministically from ``seed``.  A skew episode
    and a reordered record take the injectors' own shapes
    (:class:`ClockSkewInjector`: up to 45 s for 20 records;
    :class:`ReorderInjector`: up to 4 slots late).
    """

    seed: int = 2007
    crash_at: Optional[int] = None
    crash_rate: float = 0.0
    stall_rate: float = 0.0
    skew_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    truncate_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "stall_rate", "skew_rate",
                     "duplicate_rate", "reorder_rate", "truncate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.crash_at is not None and self.crash_at < 0:
            raise ValueError("crash_at must be non-negative")

    @classmethod
    def defaults(cls, seed: int = 2007) -> "FaultConfig":
        """The standard hostile-but-survivable schedule used by
        ``run_all(faults=...)``: occasional crashes and stalls, light
        duplication/reordering/truncation, rare clock-skew episodes."""
        return cls(
            seed=seed,
            crash_rate=2e-5,
            stall_rate=2e-5,
            skew_rate=5e-5,
            duplicate_rate=1e-3,
            reorder_rate=1e-3,
            truncate_rate=5e-4,
        )

    @classmethod
    def crash_only(cls, at: int, seed: int = 2007) -> "FaultConfig":
        """A single deterministic crash after ``at`` records — the shape
        the checkpoint/resume acceptance test uses."""
        return cls(seed=seed, crash_at=at)


# -- record mutators ---------------------------------------------------------


class DuplicateInjector:
    """Re-deliver ~``rate`` of records immediately (at-least-once delivery)."""

    def __init__(self, rng: np.random.Generator, rate: float):
        self.rng = rng
        self.rate = rate
        self.duplicated = 0

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        for record in records:
            yield record
            if self.rate and self.rng.random() < self.rate:
                self.duplicated += 1
                yield record


class ReorderInjector:
    """Hold back ~``rate`` of records and deliver them a few slots late.

    A held record is released after 1..``window`` subsequent records, which
    produces locally out-of-order delivery — the interleaving a fan-in
    collector under load actually emits.
    """

    def __init__(self, rng: np.random.Generator, rate: float, window: int = 4):
        self.rng = rng
        self.rate = rate
        self.window = window
        self.reordered = 0

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        held: List[Tuple[int, LogRecord]] = []  # (release countdown, record)
        for record in records:
            if self.rate and self.rng.random() < self.rate:
                displacement = 1 + int(self.rng.integers(0, self.window))
                held.append((displacement, record))
                self.reordered += 1
                continue
            yield record
            if held:
                due = []
                remaining = []
                for countdown, pending in held:
                    countdown -= 1
                    (due if countdown <= 0 else remaining).append(
                        (countdown, pending)
                    )
                held = remaining
                for _, pending in due:
                    yield pending
        for _, pending in held:
            yield pending


class TruncateInjector:
    """Cut ~``rate`` of record bodies short and mark them corrupted —
    the VAPI-style in-flight truncation of Section 3.2.1."""

    def __init__(self, rng: np.random.Generator, rate: float):
        self.rng = rng
        self.rate = rate
        self.truncated = 0

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        for record in records:
            body = record.body
            if (
                self.rate
                and isinstance(body, str)
                and len(body) > 4
                and self.rng.random() < self.rate
            ):
                cut = int(self.rng.integers(max(1, len(body) // 3), len(body)))
                self.truncated += 1
                yield record.with_corruption(body=body[:cut])
                continue
            yield record


class ClockSkewInjector:
    """Start a skew episode with probability ``rate`` per record: the next
    ``span`` records carry timestamps shifted by a uniform offset in
    ``[-magnitude, +magnitude]`` (a node whose clock drifted, or a relay
    stamping arrival time instead of event time).  A skewed record drops
    the line it was read from, so it renders with its skewed stamp; a
    corrupted one keeps its line, which is all it renders as."""

    def __init__(
        self,
        rng: np.random.Generator,
        rate: float,
        magnitude: float = 45.0,
        span: int = 20,
    ):
        self.rng = rng
        self.rate = rate
        self.magnitude = magnitude
        self.span = span
        self.episodes = 0
        self.skewed_records = 0

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        remaining = 0
        offset = 0.0
        for record in records:
            if remaining <= 0 and self.rate and self.rng.random() < self.rate:
                remaining = self.span
                offset = float(self.rng.uniform(-self.magnitude, self.magnitude))
                self.episodes += 1
            if remaining > 0:
                remaining -= 1
                self.skewed_records += 1
                timestamp = record.timestamp + offset
                if record.corrupted:
                    yield record._replace(timestamp=timestamp)
                else:
                    yield record._replace(timestamp=timestamp, raw=None)
                continue
            yield record


# -- delivery faults ---------------------------------------------------------


class CrashInjector:
    """A single deterministic crash after exactly ``at`` records.

    Fires once and disarms: re-wrapping the stream after a supervisor
    restart passes through cleanly, like a real restarted collector.
    """

    def __init__(self, at: int):
        if at < 0:
            raise ValueError("at must be non-negative")
        self.at = at
        self.fired = False

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        delivered = 0
        for record in records:
            if not self.fired and delivered >= self.at:
                self.fired = True
                raise CollectorCrash(
                    f"injected collector crash after {delivered} records",
                    records_delivered=delivered,
                )
            delivered += 1
            yield record


class RandomFaultInjector:
    """Stochastic delivery faults with geometric gaps between firings.

    The countdown to the next fault persists across :meth:`apply` calls,
    so a restarted stream does not re-fail at the same record — the fault
    process continues where it left off, deterministically from the rng.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        rate: float,
        exception: type = CollectorCrash,
        label: str = "crash",
    ):
        self.rng = rng
        self.rate = rate
        self.exception = exception
        self.label = label
        self.fired_count = 0
        self._countdown = self._draw() if rate > 0 else None

    def _draw(self) -> int:
        return int(self.rng.geometric(self.rate))

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        if self._countdown is None:
            yield from records
            return
        for record in records:
            self._countdown -= 1
            if self._countdown <= 0:
                self._countdown = self._draw()
                self.fired_count += 1
                if self.exception is CollectorCrash:
                    raise CollectorCrash(
                        f"injected {self.label} (firing #{self.fired_count})"
                    )
                raise self.exception(
                    f"injected {self.label} (firing #{self.fired_count})"
                )
            yield record


# -- storage faults ----------------------------------------------------------


class FaultyFilesystem(RealFilesystem):
    """Deterministic storage-fault injection behind the durability
    layer's filesystem seam.

    Every *mutating* operation (write, append, fsync, replace, remove,
    truncate) gets a monotonically increasing op index; the schedule
    says what happens at each index:

    * ``fail_after=N`` — op ``N`` and every mutating op after it raise
      ``OSError`` with ``fail_errno`` (default ENOSPC): the disk filled
      and stayed full.
    * ``kill_at=K`` — op ``K`` SIGKILLs the whole process *mid-write*:
      a file write puts half the payload on disk first (the torn-write
      case the CRC framing exists for), an fsync dies before the data
      is known durable, a replace dies before happening.

    Both schedules are plain op counts, so a deterministic workload
    replays them exactly — the property that lands a kill inside a
    specific checkpoint write on every run.  Pass one as the ``fs`` of
    a :class:`~repro.resilience.durability.CheckpointStore`,
    :class:`~repro.resilience.durability.SegmentedWal` or
    :class:`~repro.store.ColumnarStoreWriter`; ``run_stream`` hands its
    checkpoint store's ``fs`` to its store writer.
    """

    def __init__(
        self,
        fail_after: Optional[int] = None,
        fail_errno: int = errno.ENOSPC,
        kill_at: Optional[int] = None,
    ):
        self.fail_after = fail_after
        self.fail_errno = fail_errno
        self.kill_at = kill_at
        self.ops = 0

    def _gate(self, op: str, path: str,
              torn: Optional[Callable[[], None]] = None) -> None:
        """Count one mutating op and apply the schedule to it; a kill of
        a write first calls ``torn``, which puts half the payload on
        disk (the torn-write case the CRC framing exists for)."""
        index = self.ops
        self.ops += 1
        if self.kill_at is not None and index == self.kill_at:
            if torn is not None:  # pragma: no cover - dies
                torn()
            self._kill(op, path)
        if self.fail_after is not None and index >= self.fail_after:
            raise OSError(
                self.fail_errno,
                f"injected {errno.errorcode.get(self.fail_errno, 'EIO')} "
                f"at fs op {index} ({op} {path})",
            )

    def _kill(self, op: str, path: str) -> None:  # pragma: no cover - dies
        os.kill(os.getpid(), signal.SIGKILL)

    # -- mutating ops, each gated -----------------------------------------

    def write_bytes(self, path: str, data: bytes, sync: bool = True) -> None:
        real = super().write_bytes
        self._gate("write", path, lambda: real(path, data[: len(data) // 2]))
        real(path, data, sync=sync)

    def open_append(self, path: str) -> "_FaultyAppendHandle":
        return _FaultyAppendHandle(self, path)

    def replace(self, src: str, dst: str) -> None:
        self._gate("replace", dst)
        super().replace(src, dst)

    def remove(self, path: str) -> None:
        self._gate("remove", path)
        super().remove(path)

    def truncate(self, path: str, length: int) -> None:
        self._gate("truncate", path)
        super().truncate(path, length)


class _FaultyAppendHandle(_AppendHandle):
    """An append handle whose writes and fsyncs run through the owning
    :class:`FaultyFilesystem`'s schedule."""

    def __init__(self, fs: FaultyFilesystem, path: str):
        super().__init__(path)
        self._fs = fs

    def write(self, data: bytes) -> None:
        def torn() -> None:  # pragma: no cover - dies
            super(_FaultyAppendHandle, self).write(data[: len(data) // 2])
            super(_FaultyAppendHandle, self).sync()

        self._fs._gate("append", self.path, torn)
        super().write(data)

    def sync(self) -> None:
        self._fs._gate("fsync", self.path)
        super().sync()


# -- composition -------------------------------------------------------------


def compose(records: Iterable[LogRecord], *injectors) -> Iterator[LogRecord]:
    """Chain injectors left-to-right over a record stream."""
    stream = records
    for injector in injectors:
        stream = injector.apply(stream)
    return iter(stream)


class FaultPlan:
    """A reproducible fault schedule bound to one pipeline run.

    Mutating injectors are re-seeded identically on every :meth:`wrap`
    call, so the re-presented (deterministic) stream after a supervisor
    restart is mutated identically — a precondition for exact
    checkpoint/resume.  Delivery faults (crashes, stalls) persist across
    wraps: a planted ``crash_at`` fires once, and stochastic fault
    countdowns continue rather than re-firing at the same record.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self.wraps = 0
        delivery_seq = np.random.SeedSequence(entropy=(config.seed, 0xFA117))
        crash_rng, stall_rng = (
            np.random.default_rng(child) for child in delivery_seq.spawn(2)
        )
        self._delivery: List = []
        if config.crash_at is not None:
            self._delivery.append(CrashInjector(config.crash_at))
        if config.crash_rate > 0:
            self._delivery.append(
                RandomFaultInjector(
                    crash_rng, config.crash_rate, CollectorCrash, "collector crash"
                )
            )
        if config.stall_rate > 0:
            self._delivery.append(
                RandomFaultInjector(
                    stall_rng, config.stall_rate, StallTimeout, "collector stall"
                )
            )

    def _mutators(self) -> List:
        """Fresh, identically-seeded mutators for one pass over the stream."""
        config = self.config
        mutator_seq = np.random.SeedSequence(entropy=(config.seed, 0x3C0DE))
        children = mutator_seq.spawn(4)
        mutators: List = []
        if config.duplicate_rate > 0:
            mutators.append(
                DuplicateInjector(np.random.default_rng(children[0]),
                                  config.duplicate_rate)
            )
        if config.reorder_rate > 0:
            mutators.append(
                ReorderInjector(np.random.default_rng(children[1]),
                                config.reorder_rate)
            )
        if config.truncate_rate > 0:
            mutators.append(
                TruncateInjector(np.random.default_rng(children[2]),
                                 config.truncate_rate)
            )
        if config.skew_rate > 0:
            mutators.append(
                ClockSkewInjector(np.random.default_rng(children[3]),
                                  config.skew_rate)
            )
        return mutators

    def wrap(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        """Apply the schedule to one (re-)presentation of the stream."""
        self.wraps += 1
        return compose(records, *self._mutators(), *self._delivery)
