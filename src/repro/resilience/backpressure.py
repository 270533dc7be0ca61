"""Bounded inter-stage queues, credit-based flow control, overload metrics.

The paper's collection paths lose data precisely when the system is most
interesting: bursty failure cascades overwhelm UDP syslog and the central
collectors (Sections 3.1-3.2), and what gets lost is whatever the
transport happened to drop — no accounting, no priority.  Production log
pipelines instead bound every buffer and *choose* what to lose (Park et
al., "Big Data Meets HPC Log Analytics").  This module supplies the
mechanics of that choice:

* :class:`BoundedQueue` — a bounded inter-stage buffer with high/low
  watermarks and hysteresis: pressure rises to ``ELEVATED`` when
  occupancy crosses the high watermark and does not relax until it drains
  below the low watermark, so shedding does not flap at the boundary;
* :class:`CreditGate` — credit-based flow control: an upstream producer
  may push only as many records as the downstream queue has free space
  below its high watermark, which is how a *pausable* source (our
  deterministic generators, a file reader) is slowed instead of shed;
* :class:`OverloadMonitor` — samples queue occupancy, shed counts, and
  per-stage throughput, and raises the ``sustained_overload`` flag the
  bounded driver uses to enter degraded mode instead of OOM;
* :class:`BackpressureConfig` — one object describing all of the above,
  accepted by :func:`repro.api.run_stream` (and so by every attempt of
  :func:`repro.resilience.supervisor.supervise`).

An *unpausable* source (a UDP fan-in cannot be slowed, only shed) goes
through the door built from these parts,
:class:`repro.resilience.shedding.BoundedIngest`: the queue, its shed
policy, and the one admission loop, owned by the bounded driver (one per
run) and by the ingest service (one per tenant).

Everything here is deliberately free of imports from the rest of the
package (records, policies, and dead-letter queues are duck-typed), so
any layer can use it without import cycles.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

#: Shed-decision verbs shared with :mod:`repro.resilience.shedding`.
#: Plain strings so policy objects stay duck-typed.
KEEP = "keep"
SHED = "shed"
SPILL = "spill"


class PressureLevel(enum.IntEnum):
    """Queue pressure, ordered so ``max()`` over queues is meaningful."""

    NORMAL = 0
    ELEVATED = 1   # above the high watermark (with hysteresis)
    CRITICAL = 2   # at capacity: nothing more fits


@dataclass(frozen=True)
class Watermarks:
    """High/low occupancy thresholds for a bounded queue.

    Crossing ``high`` raises pressure; pressure does not relax until
    occupancy drains back to ``low`` (hysteresis), so a queue hovering at
    the boundary does not toggle shedding on and off per record.
    """

    high: int
    low: int

    def __post_init__(self) -> None:
        if self.low < 0:
            raise ValueError("low watermark must be non-negative")
        if self.high <= self.low:
            raise ValueError("high watermark must exceed low watermark")

    @classmethod
    def for_capacity(
        cls, capacity: int, high_fraction: float = 0.8, low_fraction: float = 0.5
    ) -> "Watermarks":
        """Watermarks at the conventional fractions of ``capacity``."""
        high = max(1, min(capacity, int(capacity * high_fraction)))
        low = max(0, min(high - 1, int(capacity * low_fraction)))
        return cls(high=high, low=low)


class BoundedQueue:
    """A bounded FIFO between two pipeline stages, with pressure state.

    Unlike ``deque(maxlen=...)`` — which silently evicts — a full
    :class:`BoundedQueue` *refuses* (:meth:`put` returns ``False``) so the
    caller must decide what to lose.  Occupancy, peak occupancy, and
    throughput counters are tracked for the overload monitor.
    """

    def __init__(
        self,
        name: str,
        capacity: int,
        watermarks: Optional[Watermarks] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        self.watermarks = watermarks or Watermarks.for_capacity(capacity)
        if self.watermarks.high > capacity:
            raise ValueError("high watermark cannot exceed capacity")
        self._items: Deque[Any] = deque()
        self._elevated = False
        self.peak_occupancy = 0
        self.total_in = 0
        self.total_out = 0
        self.refused = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def credits(self) -> int:
        """Free space below the high watermark — what a credit-controlled
        upstream may push before backpressure engages."""
        return max(0, self.watermarks.high - len(self._items))

    def put(self, item: Any) -> bool:
        """Append ``item``; ``False`` (and no append) when full."""
        items = self._items
        if len(items) >= self.capacity:
            self.refused += 1
            return False
        items.append(item)
        self.total_in += 1
        if len(items) > self.peak_occupancy:
            self.peak_occupancy = len(items)
        return True

    def get(self) -> Any:
        """Pop the oldest item; raises ``IndexError`` when empty."""
        item = self._items.popleft()
        self.total_out += 1
        return item

    def take(self, n: int) -> List[Any]:
        """Pop up to ``n`` oldest items as a list (a service-stage drain
        that hands one tick's worth to a batch consumer)."""
        popleft = self._items.popleft
        out = [popleft() for _ in range(min(n, len(self._items)))]
        self.total_out += len(out)
        return out

    def pressure(self) -> PressureLevel:
        """Current pressure, with high/low hysteresis."""
        n = len(self._items)
        if n >= self.watermarks.high:
            self._elevated = True
        elif n <= self.watermarks.low:
            self._elevated = False
        if n >= self.capacity:
            return PressureLevel.CRITICAL
        return PressureLevel.ELEVATED if self._elevated else PressureLevel.NORMAL


class CreditGate:
    """Credit-based flow control over one downstream queue.

    The producer asks for ``n`` slots; the gate grants at most the
    queue's free space below its high watermark and accounts for the
    difference — ``withheld`` is exactly how much the upstream generator
    was slowed by backpressure.
    """

    def __init__(self, queue: BoundedQueue):
        self.queue = queue
        self.requested = 0
        self.granted = 0
        self.withheld = 0

    def acquire(self, n: int) -> int:
        """Grant up to ``n`` credits; returns the number granted."""
        self.requested += n
        grant = min(n, self.queue.credits())
        self.granted += grant
        self.withheld += n - grant
        return grant


class OverloadMonitor:
    """Samples queue occupancy and raises the sustained-overload flag.

    One monitor can outlive the queues it watches (``supervise`` shares a
    single monitor across restart attempts): :meth:`attach` replaces a
    same-named queue but peaks persist, so the report covers the whole
    supervised run, degraded partial included.
    """

    def __init__(self, sustain: int = 8):
        if sustain < 1:
            raise ValueError("sustain must be at least 1")
        self.sustain = sustain
        self._queues: Dict[str, BoundedQueue] = {}
        self.peak_by_queue: Dict[str, int] = {}
        self.capacity_by_queue: Dict[str, int] = {}
        self.stage_throughput: Dict[str, int] = {}
        self.samples = 0
        self.overloaded_samples = 0
        self.sustained_overload = False
        self.events: List[str] = []
        self._consecutive = 0

    def attach(self, queue: BoundedQueue) -> BoundedQueue:
        self._queues[queue.name] = queue
        self.peak_by_queue.setdefault(queue.name, 0)
        self.capacity_by_queue[queue.name] = queue.capacity
        return queue

    def note_throughput(self, stage: str, count: int) -> None:
        if count:
            self.stage_throughput[stage] = (
                self.stage_throughput.get(stage, 0) + count
            )

    def sample(self) -> PressureLevel:
        """Record one observation of every attached queue; returns the
        worst pressure seen.  ``sustain`` consecutive non-NORMAL samples
        latch :attr:`sustained_overload`."""
        self.samples += 1
        level = PressureLevel.NORMAL
        for name, queue in self._queues.items():
            # The queue's own peak is exact (tracked per put); sampling
            # len() here would miss intra-tick maxima.
            if queue.peak_occupancy > self.peak_by_queue[name]:
                self.peak_by_queue[name] = queue.peak_occupancy
            queue_level = queue.pressure()
            if queue_level > level:
                level = queue_level
        if level is not PressureLevel.NORMAL:
            self.overloaded_samples += 1
            self._consecutive += 1
            if not self.sustained_overload and self._consecutive >= self.sustain:
                self.sustained_overload = True
                self.events.append(
                    f"sustained overload: {self._consecutive} consecutive "
                    f"samples above the high watermark (sample {self.samples})"
                )
        else:
            self._consecutive = 0
        return level


@dataclass
class OverloadReport:
    """Everything a run's overload handling did, for ``summary()``.

    ``shed_by_class``/``spilled_by_class`` are exact: every record the
    bounded pipeline declined to process appears here (sheds) or in the
    dead-letter queue (spills) — nothing is lost without a count.
    """

    queue_peaks: Dict[str, int] = field(default_factory=dict)
    queue_capacities: Dict[str, int] = field(default_factory=dict)
    samples: int = 0
    overloaded_samples: int = 0
    sustained_overload: bool = False
    degraded: bool = False
    offered_by_class: Dict[str, int] = field(default_factory=dict)
    shed_by_class: Dict[str, int] = field(default_factory=dict)
    spilled_by_class: Dict[str, int] = field(default_factory=dict)
    stage_throughput: Dict[str, int] = field(default_factory=dict)
    credits_requested: int = 0
    credits_withheld: int = 0
    events: Tuple[str, ...] = ()

    @property
    def total_shed(self) -> int:
        return sum(self.shed_by_class.values())

    @property
    def total_spilled(self) -> int:
        return sum(self.spilled_by_class.values())

    @classmethod
    def from_parts(
        cls,
        monitor: Optional[OverloadMonitor] = None,
        accounting: Optional[Any] = None,
        gate: Optional[CreditGate] = None,
        degraded: bool = False,
    ) -> "OverloadReport":
        """Assemble a report from whichever parts a caller holds.

        ``accounting`` is a :class:`repro.resilience.shedding.ShedAccounting`
        (duck-typed: ``offered``/``shed``/``spilled`` count dicts).
        """
        report = cls(degraded=degraded)
        if monitor is not None:
            report.queue_peaks = dict(monitor.peak_by_queue)
            report.queue_capacities = dict(monitor.capacity_by_queue)
            report.samples = monitor.samples
            report.overloaded_samples = monitor.overloaded_samples
            report.sustained_overload = monitor.sustained_overload
            report.stage_throughput = dict(monitor.stage_throughput)
            report.events = tuple(monitor.events)
        if accounting is not None:
            report.offered_by_class = dict(accounting.offered)
            report.shed_by_class = dict(accounting.shed)
            report.spilled_by_class = dict(accounting.spilled)
        if gate is not None:
            report.credits_requested = gate.requested
            report.credits_withheld = gate.withheld
        return report

    def summary_lines(self) -> List[str]:
        """Lines in the style of :meth:`PipelineResult.summary`."""
        peaks = ", ".join(
            f"{name} {self.queue_peaks.get(name, 0)}/{cap}"
            for name, cap in sorted(self.queue_capacities.items())
        )
        lines = [f"queues (peak):     {peaks or 'none attached'}"]
        if self.total_shed:
            by_class = ", ".join(
                f"{klass}: {count:,}"
                for klass, count in sorted(self.shed_by_class.items())
            )
            lines.append(f"shed:              {self.total_shed:,} ({by_class})")
        if self.total_spilled:
            lines.append(
                f"spilled:           {self.total_spilled:,} "
                "(to dead-letter; tagged alerts are never silently dropped)"
            )
        if self.credits_withheld:
            lines.append(
                f"backpressure:      {self.credits_withheld:,} of "
                f"{self.credits_requested:,} source credits withheld"
            )
        if self.samples:
            lines.append(
                f"overload samples:  {self.overloaded_samples}/{self.samples}"
                + (" (sustained)" if self.sustained_overload else "")
            )
        if self.degraded:
            lines.append(
                "degraded (load):   yes — coarser stats, larger filter T"
            )
        return lines


@dataclass
class BackpressureConfig:
    """Configuration for a bounded, load-shedding pipeline run.

    ``max_buffer`` bounds the one queue of the pump, between
    generate/collect and the tag -> filter kernel.  Per tick the source
    offers ``arrival_batch`` records and the kernel serves
    ``service_batch`` — a burst is simply an ``arrival_batch`` larger
    than the service rate.  With a ``source_pausable`` source,
    credit-based flow control slows arrivals instead (nothing is shed);
    an unpausable source (UDP fan-in) engages the shed policy.
    ``degrade`` answers sustained overload with coarse stats and a
    raised filter ``T``.

    ``monitor`` and ``accounting`` are normally created per run;
    :func:`~repro.resilience.supervisor.supervise` binds shared instances
    (:meth:`with_runtime`) so overload accounting survives restarts.
    """

    max_buffer: int = 1024
    high_fraction: float = 0.8
    low_fraction: float = 0.5
    arrival_batch: int = 64
    service_batch: int = 64
    source_pausable: bool = True
    shed_policy: Union[str, Any] = "priority"
    dedup_window: Optional[float] = None
    degrade: bool = False
    sustain: int = 8
    monitor: Optional[OverloadMonitor] = field(default=None, compare=False)
    accounting: Optional[Any] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for name in ("max_buffer", "arrival_batch", "service_batch",
                     "sustain"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 < self.low_fraction < self.high_fraction <= 1.0:
            raise ValueError(
                "need 0 < low_fraction < high_fraction <= 1, got "
                f"{self.low_fraction}/{self.high_fraction}"
            )

    @classmethod
    def burst(
        cls, factor: float = 10.0, service_batch: int = 32, **kwargs
    ) -> "BackpressureConfig":
        """A burst workload: arrivals outpace service ``factor``-fold and
        the source cannot be paused — the Spirit-storm shape that forces
        the shed policy to choose what to lose."""
        if factor < 1.0:
            raise ValueError("burst factor must be >= 1")
        kwargs.setdefault("arrival_batch", max(1, round(service_batch * factor)))
        return cls(
            service_batch=service_batch, source_pausable=False, **kwargs
        )

    def with_runtime(
        self, monitor: OverloadMonitor, accounting: Any
    ) -> "BackpressureConfig":
        """A copy bound to shared runtime state: ``supervise`` hands the
        same monitor and accounting to every attempt it runs."""
        return replace(self, monitor=monitor, accounting=accounting)
