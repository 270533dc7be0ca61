"""Priority-aware load shedding: choose what to lose, and account for it.

The paper's transports degrade *arbitrarily*: UDP syslog drops whatever
packets hit contention (Section 3.1), so the burst that matters most is
exactly what goes missing.  A shedding policy inverts that: when a
bounded buffer comes under pressure, records are dropped in a deliberate,
paper-aware priority order —

1. **non-alert INFO chatter** first: the 99%+ of messages no expert rule
   tags (Liberty: 2,452 alerts in 265 M messages) are the cheapest loss;
2. **duplicate-category alerts** next: an alert whose category was
   already reported within the filter window is exactly what the
   spatio-temporal filter (Section 3.3) would suppress anyway;
3. **tagged Hardware/Software/Indeterminate alerts never**: when even
   duplicates cannot make room, a fresh tagged alert is *spilled* to the
   dead-letter path with exact accounting — degraded, audited, never
   silently lost.

Policies are pluggable (``--shed-policy`` on the CLI): the registry also
offers ``chatter-only`` (sheds nothing that any rule tags) and ``none``
(sheds nothing at all; overflow spills, turning arbitrary transport loss
into accounted loss).  All decisions and their outcomes are counted in
:class:`ShedAccounting`, whose totals feed the overload report on
:meth:`repro.api.PipelineResult.summary`.

:class:`BoundedIngest` is the door itself — the bounded queue, its
policy, and the one loop that puts each tagged arrival to the policy
against the live queue depth.  The bounded driver owns one per run and
the ingest service one per tenant; each keeps only its own bookkeeping
for what the door refuses.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .backpressure import (
    KEEP,
    SHED,
    SPILL,
    BoundedQueue,
    PressureLevel,
    Watermarks,
)

#: Shed classes, in degradation order (first shed first).
CLASS_CHATTER = "info-chatter"
CLASS_DUPLICATE = "duplicate-alert"
CLASS_ALERT = "tagged-alert"

Decision = Tuple[str, str]  # (KEEP | SHED | SPILL, shed class)


class ShedAccounting:
    """Exact counters for every shed decision, by class.

    ``offered`` counts every record a policy classified; ``shed`` the
    records dropped at the door; ``spilled`` the records routed to the
    dead-letter path instead.  ``offered - shed - spilled`` records were
    admitted, so conservation is checkable end to end.
    """

    def __init__(self) -> None:
        self.offered: Dict[str, int] = {}
        self.shed: Dict[str, int] = {}
        self.spilled: Dict[str, int] = {}
        # Counter updates are read-modify-write; keep them exact when one
        # accounting object is shared across threads or tenant tasks.
        self._lock = threading.Lock()

    def count_offered(self, klass: str, n: int = 1) -> None:
        with self._lock:
            self.offered[klass] = self.offered.get(klass, 0) + n

    def count_shed(self, klass: str, n: int = 1) -> None:
        with self._lock:
            self.shed[klass] = self.shed.get(klass, 0) + n

    def count_spilled(self, klass: str, n: int = 1) -> None:
        with self._lock:
            self.spilled[klass] = self.spilled.get(klass, 0) + n

    @property
    def total_offered(self) -> int:
        return sum(self.offered.values())

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    @property
    def total_spilled(self) -> int:
        return sum(self.spilled.values())

    @property
    def admitted(self) -> int:
        return self.total_offered - self.total_shed - self.total_spilled

    def summary(self) -> str:
        if not self.total_shed and not self.total_spilled:
            return "nothing shed"
        parts = [
            f"{klass}: {count}" for klass, count in sorted(self.shed.items())
        ]
        text = f"{self.total_shed} shed ({', '.join(parts)})" if parts else "0 shed"
        if self.total_spilled:
            text += f", {self.total_spilled} spilled to dead-letter"
        return text


class ShedPolicy:
    """Base policy: classification plus a (subclass-supplied) decision.

    Classification needs the system's expert ruleset — the tagger *is*
    the priority oracle — so the caller, who tags every record anyway,
    passes :meth:`decide` the ``verdict`` and the rules engine is asked
    once.  A verdict that is a tagger error classifies as
    :data:`CLASS_ALERT`: with no way to tell chatter from alerts, the
    only safe degradation is to spill with accounting, never to shed.

    ``dedup_window`` is the lookback (seconds) within which a repeated
    category counts as a duplicate; the pipeline defaults it to the
    filter threshold ``T`` so "duplicate" means "what Algorithm 3.1 would
    suppress anyway".
    """

    name = "base"

    def __init__(self, dedup_window: float = 5.0):
        if dedup_window < 0:
            raise ValueError("dedup_window must be non-negative")
        self.dedup_window = dedup_window
        self._last_seen: Dict[str, float] = {}
        # The duplicate-lookback table is read-modify-written per record;
        # the ingest service multiplexes policies across tenant tasks (and
        # tests hammer one from threads), so the update must be atomic.
        self._lock = threading.Lock()

    def classify(self, record, verdict) -> str:
        """The record's shed class, from the tagger's ``verdict`` on it:
        the alert, ``None``, or the tagger error's ``repr``."""
        if verdict is None:
            return CLASS_CHATTER
        if isinstance(verdict, str):
            return CLASS_ALERT  # the rules engine failed on it
        name = verdict.category
        with self._lock:
            last = self._last_seen.get(name)
            self._last_seen[name] = record.timestamp
        if last is not None and 0 <= record.timestamp - last < self.dedup_window:
            return CLASS_DUPLICATE
        return CLASS_ALERT

    def state_dict(self) -> Dict[str, float]:
        """The duplicate-lookback state (category -> last seen timestamp),
        checkpointed by bounded runs so a resumed policy makes the same
        duplicate calls it would have made uninterrupted."""
        with self._lock:
            return dict(self._last_seen)

    def load_state_dict(self, state: Optional[Dict[str, float]]) -> None:
        with self._lock:
            self._last_seen = dict(state) if state else {}

    def decide(self, record, level: PressureLevel, verdict) -> Decision:
        raise NotImplementedError


class PriorityShedPolicy(ShedPolicy):
    """The paper-aware default: chatter at ELEVATED, duplicates at
    CRITICAL, tagged alerts never — they spill to the dead-letter path."""

    name = "priority"

    def decide(self, record, level: PressureLevel, verdict) -> Decision:
        klass = self.classify(record, verdict)
        if level is PressureLevel.NORMAL:
            return KEEP, klass
        if klass == CLASS_CHATTER:
            return SHED, klass
        if level is PressureLevel.CRITICAL:
            if klass == CLASS_DUPLICATE:
                return SHED, klass
            return SPILL, klass
        return KEEP, klass


class ChatterOnlyShedPolicy(ShedPolicy):
    """Sheds only untagged chatter; anything any rule tags — duplicate or
    not — is kept while room exists and spilled (never shed) at CRITICAL."""

    name = "chatter-only"

    def decide(self, record, level: PressureLevel, verdict) -> Decision:
        klass = self.classify(record, verdict)
        if level is PressureLevel.NORMAL:
            return KEEP, klass
        if klass == CLASS_CHATTER:
            return SHED, klass
        if level is PressureLevel.CRITICAL:
            return SPILL, klass
        return KEEP, klass


class NoShedPolicy(ShedPolicy):
    """Never sheds: overflow spills with accounting.  The contrast case —
    bounded memory with *accounted* (not arbitrary) loss and no priority."""

    name = "none"

    def decide(self, record, level: PressureLevel, verdict) -> Decision:
        klass = self.classify(record, verdict)
        if level is PressureLevel.CRITICAL:
            return SPILL, klass
        return KEEP, klass


SHED_POLICIES = {
    policy.name: policy
    for policy in (PriorityShedPolicy, ChatterOnlyShedPolicy, NoShedPolicy)
}


def get_shed_policy(
    policy: Union[str, ShedPolicy], dedup_window: Optional[float] = None
) -> ShedPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, ShedPolicy):
        return policy
    try:
        cls = SHED_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown shed policy {policy!r}; known: {sorted(SHED_POLICIES)}"
        ) from None
    if dedup_window is None:
        return cls()
    return cls(dedup_window=dedup_window)


class BoundedIngest:
    """The one door for overload: a bounded queue, the shed policy that
    guards it, and the loop that puts tagged arrivals to that policy.

    ``config`` is anything with ``max_buffer``, ``high_fraction``,
    ``low_fraction``, ``shed_policy`` and ``dedup_window``
    (:class:`~repro.resilience.backpressure.BackpressureConfig`,
    :class:`~repro.service.config.ServiceConfig`); ``threshold`` is the
    filter ``T``, the dedup window's default; ``shed_state`` is a
    checkpointed :meth:`ShedPolicy.state_dict` to resume the duplicate
    lookback from.  :attr:`queue` and :attr:`policy` are plain
    attributes: the owner drains the one and snapshots the other.
    """

    def __init__(
        self,
        name: str,
        config: Any,
        threshold: float,
        shed_state: Optional[Dict[str, float]] = None,
    ):
        window = threshold if config.dedup_window is None else config.dedup_window
        self.policy = get_shed_policy(config.shed_policy, dedup_window=window)
        if shed_state is not None:
            self.policy.load_state_dict(shed_state)
        self.queue = BoundedQueue(
            name,
            config.max_buffer,
            Watermarks.for_capacity(
                config.max_buffer, config.high_fraction, config.low_fraction
            ),
        )

    def offer(
        self,
        records: Sequence[Any],
        outcome: Any,
        floor: PressureLevel = PressureLevel.NORMAL,
    ) -> Tuple[List[str], List[str], List[Tuple[Any, Any, str]]]:
        """Put a tagged run of arrivals to the policy, one decision per
        record against the live queue depth (never below ``floor``), and
        queue what it keeps as ``(record, verdict)``.

        ``outcome`` is the run's tag outcome (``hits`` and ``errors`` as
        ``(index, verdict)`` pairs).  Returns the class of every record
        offered, the classes shed, and ``(record, verdict, class)`` for
        each record refused — spilled by the policy, or kept by it with
        the queue full — in arrival order, for the owner to dead-letter.
        """
        decide = self.policy.decide
        pressure, put = self.queue.pressure, self.queue.put
        offered, shed, refused = [], [], []
        found = dict(chain(outcome.hits, outcome.errors))
        for item in zip(records, map(found.get, range(len(records)))):
            record, verdict = item
            decision, klass = decide(record, max(pressure(), floor), verdict)
            offered.append(klass)
            if decision == SHED:
                shed.append(klass)
            elif decision == SPILL or not put(item):
                refused.append((record, verdict, klass))
        return offered, shed, refused
