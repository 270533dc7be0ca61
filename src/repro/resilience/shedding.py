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
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple, Union

from .backpressure import KEEP, SHED, SPILL, PressureLevel

#: Shed classes, in degradation order (first shed first).
CLASS_CHATTER = "info-chatter"
CLASS_DUPLICATE = "duplicate-alert"
CLASS_ALERT = "tagged-alert"

Decision = Tuple[str, str]  # (KEEP | SHED | SPILL, shed class)
UNMATCHED = object()  # ``verdict`` default: the policy does the matching


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
    the priority oracle.  The bounded driver and the service's tenants,
    which tag every record anyway, pass :meth:`decide` that ``verdict``
    so the rules engine is asked once; other callers :meth:`bind` their
    tagger and the policy matches.  An **unbound** policy, like a
    verdict that is a tagger error, classifies as :data:`CLASS_ALERT`:
    with no way to tell chatter from alerts, the only safe degradation
    is to spill with accounting, never to shed.

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
        self._tagger = None
        self._last_seen: Dict[str, float] = {}
        # The duplicate-lookback table is read-modify-written per record;
        # the ingest service multiplexes policies across tenant tasks (and
        # tests hammer one from threads), so the update must be atomic.
        # The regex match stays outside the lock — it touches no policy
        # state and is the expensive part.
        self._lock = threading.Lock()

    def bind(self, tagger) -> "ShedPolicy":
        """Attach the system's tagger used for classification."""
        self._tagger = tagger
        return self

    def classify(self, record, verdict=UNMATCHED) -> str:
        """The record's shed class; ``verdict`` (the alert, ``None``, or
        the tagger error's ``repr``) stands in for the match made here."""
        if verdict is UNMATCHED and self._tagger is not None:
            category = self._tagger.match(record)
            name = category and category.name
        elif verdict is UNMATCHED or isinstance(verdict, str):
            return CLASS_ALERT  # unbound, or the rules engine failed on it
        else:
            name = verdict and verdict.category
        if name is None:
            return CLASS_CHATTER
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

    def decide(self, record, level: PressureLevel, verdict=UNMATCHED) -> Decision:
        raise NotImplementedError


class PriorityShedPolicy(ShedPolicy):
    """The paper-aware default: chatter at ELEVATED, duplicates at
    CRITICAL, tagged alerts never — they spill to the dead-letter path."""

    name = "priority"

    def decide(self, record, level: PressureLevel, verdict=UNMATCHED) -> Decision:
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

    def decide(self, record, level: PressureLevel, verdict=UNMATCHED) -> Decision:
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

    def decide(self, record, level: PressureLevel, verdict=UNMATCHED) -> Decision:
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
