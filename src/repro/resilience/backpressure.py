"""The bounded queue, its one pressure clock, and the overload report.

The paper's collection paths lose data precisely when the system is most
interesting: bursty failure cascades overwhelm UDP syslog and the central
collectors (Sections 3.1-3.2), and what gets lost is whatever the
transport happened to drop — no accounting, no priority.  Production log
pipelines instead bound every buffer and *choose* what to lose (Park et
al., "Big Data Meets HPC Log Analytics").  This module supplies the
mechanics of that choice:

* :class:`PressureClock` — the one pressure rule: rise to ``ELEVATED``
  at the high watermark, relax only at the low one (hysteresis, so
  shedding does not flap at the boundary), ``CRITICAL`` at the limit,
  and latch after ``sustain`` consecutive hot samples.  The bounded run
  latches for good; the service's memory governor
  (:class:`repro.service.router.MemoryGovernor`) clears after as many
  calm samples;
* :class:`BoundedQueue` — the bounded buffer in front of the tag ->
  filter kernel, with its watermarks, its clock, an exact peak, and
  credit-based flow control: a *pausable* source (our deterministic
  generators, a file reader) is granted only the free space below the
  high watermark, so it is slowed instead of shed;
* :class:`OverloadReport` — what a bounded run's overload handling did,
  built over the run's one queue and the driver's tallies;
* :class:`BackpressureConfig` — one object describing a bounded run,
  accepted by :func:`repro.api.run_stream` (and so by every attempt of
  :func:`repro.resilience.supervisor.supervise`).

An *unpausable* source (a UDP fan-in cannot be slowed, only shed) goes
through the door built from these parts,
:class:`repro.resilience.shedding.BoundedIngest`: the queue, its shed
policy, and the one admission loop, owned by the bounded driver (one per
run) and by the ingest service (one per tenant).  The queue's ledger and
the driver's tallies ride the run's checkpoint, so the report covers
exactly what the result covers, resumed or not.

Everything here is deliberately free of imports from the rest of the
package (records, policies, and dead-letter queues are duck-typed), so
any layer can use it without import cycles.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Mapping, Tuple, Union

#: Shed-decision verbs shared with :mod:`repro.resilience.shedding`.
#: Plain strings so policy objects stay duck-typed.
KEEP = "keep"
SHED = "shed"
SPILL = "spill"

#: The door's watermarks, as fractions of its capacity: pressure rises
#: to ``ELEVATED`` at the high one and relaxes only at the low one.
#: Every bounded run, every service tenant and the service's memory
#: governor use these.
HIGH_FRACTION = 0.8
LOW_FRACTION = 0.5
#: Consecutive hot samples that latch sustained overload (and, for the
#: governor, consecutive calm samples that clear it).
SUSTAIN = 8


class PressureLevel(enum.IntEnum):
    """Queue pressure, ordered so ``max()`` over levels is meaningful."""

    NORMAL = 0
    ELEVATED = 1   # above the high watermark (with hysteresis)
    CRITICAL = 2   # at capacity: nothing more fits


class PressureClock:
    """Rise at ``high``, relax at ``low``, latch after ``sustain`` hot
    samples.

    :meth:`level` is the hysteresis alone, asked once per record by the
    shed policy's caller: ``ELEVATED`` from the moment occupancy reaches
    ``high`` until it drains to ``low``, ``CRITICAL`` at ``limit``.
    :meth:`sample` is one periodic observation: it counts samples, hot
    (non-``NORMAL``) samples and the hot streak, and ``sustain``
    consecutive hot samples set :attr:`latched`.  With ``clears``, as
    many consecutive calm samples clear it again; without, it holds.
    """

    #: The mutable fields (a queue's :meth:`BoundedQueue.state_dict`
    #: carries them).
    STATE = ("elevated", "samples", "hot_samples", "hot", "calm", "latched")

    def __init__(
        self, high: int, low: int, limit: int, sustain: int = 1,
        clears: bool = False,
    ):
        if sustain < 1:
            raise ValueError("sustain must be at least 1")
        self.high, self.low, self.limit = high, low, limit
        self.sustain, self.clears = sustain, clears
        self.elevated = False
        self.samples = 0
        self.hot_samples = 0
        self.hot = 0    # consecutive hot samples
        self.calm = 0   # consecutive calm samples
        self.latched = False

    def level(self, n: int) -> PressureLevel:
        """Pressure at occupancy ``n``, with high/low hysteresis."""
        if n >= self.high:
            self.elevated = True
        elif n <= self.low:
            self.elevated = False
        if n >= self.limit:
            return PressureLevel.CRITICAL
        return PressureLevel.ELEVATED if self.elevated else PressureLevel.NORMAL

    def sample(self, n: int) -> PressureLevel:
        """One observation at occupancy ``n``: the level, folded into the
        streaks and the latch."""
        level = self.level(n)
        self.samples += 1
        if level:
            self.hot_samples += 1
            self.hot += 1
            self.calm = 0
            if self.hot >= self.sustain:
                self.latched = True
        else:
            self.calm += 1
            self.hot = 0
            if self.clears and self.calm >= self.sustain:
                self.latched = False
        return level


class BoundedQueue:
    """A bounded FIFO in front of the tag -> filter kernel.

    Unlike ``deque(maxlen=...)`` — which silently evicts — a full
    :class:`BoundedQueue` *refuses* (:meth:`put` returns ``False``) so the
    caller must decide what to lose.  The watermarks sit at
    ``high_fraction``/``low_fraction`` of ``capacity`` and drive
    :attr:`clock`; :attr:`peak_occupancy` is exact (tracked per put, so
    no intra-tick maximum is missed); :meth:`acquire` grants credits and
    counts what it withheld — exactly how much the source was slowed.
    """

    def __init__(
        self,
        name: str,
        capacity: int,
        high_fraction: float = HIGH_FRACTION,
        low_fraction: float = LOW_FRACTION,
        sustain: int = 1,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        self.high = max(1, min(capacity, int(capacity * high_fraction)))
        self.low = max(0, min(self.high - 1, int(capacity * low_fraction)))
        self.clock = PressureClock(self.high, self.low, capacity, sustain)
        self._items: Deque[Any] = deque()
        self.peak_occupancy = 0
        self.credits_requested = 0
        self.credits_withheld = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def credits(self) -> int:
        """Free space below the high watermark — what a credit-controlled
        upstream may push before backpressure engages."""
        return max(0, self.high - len(self._items))

    def acquire(self, n: int) -> int:
        """Grant up to ``n`` credits; returns the number granted."""
        grant = min(n, self.credits())
        self.credits_requested += n
        self.credits_withheld += n - grant
        return grant

    def put(self, item: Any) -> bool:
        """Append ``item``; ``False`` (and no append) when full."""
        items = self._items
        if len(items) >= self.capacity:
            return False
        items.append(item)
        if len(items) > self.peak_occupancy:
            self.peak_occupancy = len(items)
        return True

    def extend(self, items: Iterable[Any]) -> None:
        """Append every item of ``items``; the caller has counted that
        they fit (the door's calm stretch, which ends at the high
        watermark)."""
        self._items.extend(items)
        if len(self._items) > self.peak_occupancy:
            self.peak_occupancy = len(self._items)

    def take(self, n: int) -> List[Any]:
        """Pop up to ``n`` oldest items as a list (a service-stage drain
        that hands one tick's worth to a batch consumer)."""
        popleft = self._items.popleft
        return [popleft() for _ in range(min(n, len(self._items)))]

    def pressure(self) -> PressureLevel:
        """Current pressure, with high/low hysteresis."""
        return self.clock.level(len(self._items))

    def sample(self) -> PressureLevel:
        """One observation of the queue by :attr:`clock`."""
        return self.clock.sample(len(self._items))

    def state_dict(self) -> Dict[str, int]:
        """The ledger and the clock (the items are not state: snapshots
        are taken with the queue drained)."""
        state = {name: getattr(self.clock, name) for name in PressureClock.STATE}
        state.update(
            peak_occupancy=self.peak_occupancy,
            credits_requested=self.credits_requested,
            credits_withheld=self.credits_withheld,
        )
        return state

    def load_state_dict(self, state: Mapping[str, int]) -> None:
        for name in PressureClock.STATE:
            setattr(self.clock, name, state[name])
        self.peak_occupancy = state["peak_occupancy"]
        self.credits_requested = state["credits_requested"]
        self.credits_withheld = state["credits_withheld"]


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
    def build(
        cls, queue: BoundedQueue, tallies: Mapping[str, Any],
        degraded: bool = False,
    ) -> "OverloadReport":
        """The report over a run's one queue and the driver's
        ``tallies`` (``offered``/``shed``/``spilled`` by class,
        ``throughput`` by stage, and ``events``)."""
        clock = queue.clock
        return cls(
            queue_peaks={queue.name: queue.peak_occupancy},
            queue_capacities={queue.name: queue.capacity},
            samples=clock.samples,
            overloaded_samples=clock.hot_samples,
            sustained_overload=clock.latched,
            degraded=degraded,
            offered_by_class=dict(tallies["offered"]),
            shed_by_class=dict(tallies["shed"]),
            spilled_by_class=dict(tallies["spilled"]),
            stage_throughput={
                stage: n for stage, n in tallies["throughput"].items() if n
            },
            credits_requested=queue.credits_requested,
            credits_withheld=queue.credits_withheld,
            events=tuple(tallies["events"]),
        )

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
    an unpausable source (UDP fan-in) engages the shed policy, whose
    duplicate lookback is the filter ``T``.  ``degrade`` answers
    sustained overload (:data:`SUSTAIN` consecutive hot samples) with
    coarse stats and a raised filter ``T``.
    """

    max_buffer: int = 1024
    arrival_batch: int = 64
    service_batch: int = 64
    source_pausable: bool = True
    shed_policy: Union[str, Any] = "priority"
    degrade: bool = False

    def __post_init__(self) -> None:
        for name in ("max_buffer", "arrival_batch", "service_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

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
