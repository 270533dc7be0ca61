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

That order is the ``priority`` row of :data:`SHED_DECISIONS`, the one
table every :class:`ShedPolicy` decides from; its other rows are
``chatter-only`` (sheds nothing that any rule tags) and ``none`` (sheds
nothing at all; overflow spills, turning arbitrary transport loss into
accounted loss), and its keys are the ``--shed-policy`` choices of
``repro serve``.

:class:`BoundedIngest` is the door itself — the bounded queue, its
policy, and the one loop that puts each tagged arrival to the policy
against the live queue depth.  Below the high watermark, at ``NORMAL``,
every policy keeps everything, so the door takes that stretch of a run
in one step and decides record by record only from the watermark on.
The bounded driver owns one per run and tallies what it sheds and
spills into the run's checkpoint; the ingest service owns one per
tenant and counts the same into the tenant's counters.
"""

from __future__ import annotations

import threading
from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .backpressure import KEEP, SHED, SPILL, SUSTAIN, BoundedQueue, PressureLevel

#: Shed classes, in degradation order (first shed first).
CLASS_CHATTER = "info-chatter"
CLASS_DUPLICATE = "duplicate-alert"
CLASS_ALERT = "tagged-alert"

Decision = Tuple[str, str]  # (KEEP | SHED | SPILL, shed class)

#: What each policy does to each class (chatter, duplicate, tagged alert)
#: at each pressure level.  At NORMAL every policy keeps everything, and
#: no policy ever sheds a fresh tagged alert.
SHED_DECISIONS = {
    #               NORMAL              ELEVATED            CRITICAL
    "priority":     ((KEEP, KEEP, KEEP), (SHED, KEEP, KEEP), (SHED, SHED, SPILL)),
    "chatter-only": ((KEEP, KEEP, KEEP), (SHED, KEEP, KEEP), (SHED, SPILL, SPILL)),
    "none":         ((KEEP, KEEP, KEEP), (KEEP, KEEP, KEEP), (SPILL, SPILL, SPILL)),
}


def marks(outcome: Any) -> List[Tuple[int, Any]]:
    """A tag outcome's hits and errors as one list of ``(index,
    verdict)`` pairs in index order: every record a shed class needs a
    look at (any other is chatter)."""
    return sorted(chain(outcome.hits, outcome.errors), key=itemgetter(0))


class ShedPolicy:
    """One row of :data:`SHED_DECISIONS`, plus the classification it
    decides from.

    Classification needs the system's expert ruleset — the tagger *is*
    the priority oracle — so the caller, who tags every record anyway,
    passes :meth:`decide` the ``verdict`` and the rules engine is asked
    once.  A verdict that is a tagger error classifies as
    :data:`CLASS_ALERT`: with no way to tell chatter from alerts, the
    only safe degradation is to spill with accounting, never to shed.

    ``dedup_window`` is the lookback (seconds) within which a repeated
    category counts as a duplicate; the door sets it to the filter
    threshold ``T``, so "duplicate" means "what Algorithm 3.1 would
    suppress anyway".
    """

    def __init__(self, name: str, dedup_window: float = 5.0):
        if name not in SHED_DECISIONS:
            raise ValueError(
                f"unknown shed policy {name!r}; known: {sorted(SHED_DECISIONS)}"
            )
        if dedup_window < 0:
            raise ValueError("dedup_window must be non-negative")
        self.name = name
        self.dedup_window = dedup_window
        # Indexed by level, then by class.
        self._decisions = tuple(
            dict(zip((CLASS_CHATTER, CLASS_DUPLICATE, CLASS_ALERT), verbs))
            for verbs in SHED_DECISIONS[name]
        )
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

    def decide(self, record, level: PressureLevel, verdict) -> Decision:
        klass = self.classify(record, verdict)
        return self._decisions[level][klass], klass

    def state_dict(self) -> Dict[str, float]:
        """The duplicate-lookback state (category -> last seen timestamp),
        checkpointed by bounded runs so a resumed policy makes the same
        duplicate calls it would have made uninterrupted."""
        with self._lock:
            return dict(self._last_seen)

    def load_state_dict(self, state: Optional[Dict[str, float]]) -> None:
        with self._lock:
            self._last_seen = dict(state) if state else {}


class BoundedIngest:
    """The one door for overload: a bounded queue, the shed policy that
    guards it, and the loop that puts tagged arrivals to that policy.

    A run that meets a ``NORMAL`` queue is admitted by the stretch: up
    to the high watermark it is counted by class (only the tagger's hits
    and errors are classified) and queued in one step; the records past
    the watermark are decided one by one, as the pressure they meet
    rises.  The bounded driver's fused pump counts a run it never queues
    with the same :meth:`classes`.

    ``config`` is anything with ``max_buffer`` and ``shed_policy`` (a
    :data:`SHED_DECISIONS` key, or a :class:`ShedPolicy` to use as is):
    :class:`~repro.resilience.backpressure.BackpressureConfig` or
    :class:`~repro.service.config.ServiceConfig`.  ``threshold`` is the
    filter ``T``, the policy's duplicate lookback; ``shed_state`` is a
    checkpointed :meth:`ShedPolicy.state_dict` to resume that lookback
    from.  The watermarks and the latch are constants of
    :mod:`~repro.resilience.backpressure`.  :attr:`queue` and
    :attr:`policy` are plain attributes: the owner drains the one and
    snapshots the other.
    """

    def __init__(
        self,
        name: str,
        config: Any,
        threshold: float,
        shed_state: Optional[Dict[str, float]] = None,
    ):
        policy = config.shed_policy
        if not isinstance(policy, ShedPolicy):
            policy = ShedPolicy(policy, dedup_window=threshold)
        self.policy = policy
        if shed_state is not None:
            self.policy.load_state_dict(shed_state)
        self.queue = BoundedQueue(name, config.max_buffer, sustain=SUSTAIN)

    def classes(
        self, records: Sequence[Any], marked: Sequence[Tuple[int, Any]]
    ) -> Counter:
        """The shed classes of ``records``, counted in first-occurrence
        order.  ``marked`` is the run's :func:`marks`; every other record
        is chatter.  Only the marked records are classified, so chatter
        never touches the duplicate lookback, which moves exactly as a
        per-record pass would move it."""
        counts: Counter = Counter()
        classify = self.policy.classify
        chatter = len(records) - len(marked)
        for seen, (at, verdict) in enumerate(marked):
            if chatter and at > seen:  # record ``seen`` is the first chatter
                counts[CLASS_CHATTER] = chatter
                chatter = 0
            counts[classify(records[at], verdict)] += 1
        if chatter:
            counts[CLASS_CHATTER] = chatter
        return counts

    def offer(
        self,
        records: Sequence[Any],
        outcome: Any,
        floor: PressureLevel = PressureLevel.NORMAL,
    ) -> Tuple[Counter, Counter, List[Tuple[Any, Any, str]]]:
        """Put a tagged run of arrivals to the policy against the live
        queue depth (never below ``floor``), and queue what it keeps as
        ``(record, verdict)``.

        Within one call the queue grows only by the run's own puts, so
        the pressure is a step function of how many have been put.  When
        it is ``NORMAL`` at the start depth and so is ``floor``, every
        policy keeps every record up to the high watermark: that stretch
        is counted by :meth:`classes` and queued in one ``extend``.  From
        the high watermark on, each record is decided on its own against
        the pressure its predecessors left.

        ``outcome`` is the run's tag outcome (``hits`` and ``errors`` as
        ``(index, verdict)`` pairs).  Returns the classes offered and the
        classes shed, as counts in first-occurrence order, and ``(record,
        verdict, class)`` for each record refused — spilled by the
        policy, or kept by it with the queue full — in arrival order, for
        the owner to dead-letter.
        """
        queue = self.queue
        marked = marks(outcome)
        calm = 0
        if records and max(queue.pressure(), floor) == PressureLevel.NORMAL:
            calm = min(len(records), queue.high - len(queue))
        split = sum(1 for at, _ in marked if at < calm)
        offered = self.classes(records[:calm], marked[:split])
        verdicts = [None] * calm
        for at, verdict in marked[:split]:
            verdicts[at] = verdict
        queue.extend(zip(records[:calm], verdicts))

        decide = self.policy.decide
        pressure, put = queue.pressure, queue.put
        shed: Counter = Counter()
        refused = []
        found = dict(marked[split:])
        for at in range(calm, len(records)):
            record, verdict = item = records[at], found.get(at)
            decision, klass = decide(record, max(pressure(), floor), verdict)
            offered[klass] += 1
            if decision == SHED:
                shed[klass] += 1
            elif decision == SPILL or not put(item):
                refused.append((record, verdict, klass))
        return offered, shed, refused
