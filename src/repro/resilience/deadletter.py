"""Bounded dead-letter quarantine for records the pipeline cannot process.

The paper's logs are full of records that defeat naive parsers — truncated
and spliced lines, garbled source fields, bad timestamps (Section 3.2.1).
A production collection path does not crash on these and does not silently
drop them either: it *quarantines* them with a reason, bounded in memory,
so an operator can audit what the pipeline refused (the pattern of the
dead-letter queues in production log stacks; cf. Park et al., "Big Data
Meets HPC Log Analytics").

:class:`DeadLetterQueue` keeps the most recent ``capacity`` quarantined
records plus exact counters per reason; overflow evicts the oldest letter
but never loses the counts.  Snapshots are cheap and immutable so the
checkpoint subsystem can include quarantine state in a resumable snapshot.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, Optional, Tuple

from ..logmodel.record import LogRecord

#: Reasons used by the built-in pipeline stages (free-form strings are
#: allowed; these are the conventional ones).
REASON_INVALID_RECORD = "invalid-record"
REASON_TAGGER_ERROR = "tagger-error"
REASON_OUT_OF_ORDER = "out-of-order"
REASON_CIRCUIT_OPEN = "circuit-open"
REASON_SHED_OVERLOAD = "shed-overload"
#: Reasons used by the multi-tenant ingest service (:mod:`repro.service`).
REASON_WORKER_CRASH = "worker-crash"
REASON_TENANT_QUARANTINED = "tenant-quarantined"
REASON_UNROUTABLE = "unroutable"


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined record with the reason it was refused."""

    record: LogRecord
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class DeadLetterSnapshot:
    """Immutable state of a queue, for checkpointing."""

    letters: Tuple[DeadLetter, ...]
    by_reason: Tuple[Tuple[str, int], ...]
    quarantined: int
    evicted: int
    evicted_counts: Tuple[Tuple[str, int], ...] = ()


class DeadLetterQueue:
    """A bounded quarantine: newest ``capacity`` letters, exact counters.

    Safe for concurrent :meth:`put`/:meth:`snapshot` from multiple threads
    (and, trivially, from interleaved asyncio tasks): the ingest service
    multiplexes per-run objects like this one across many tenant tasks,
    and the conservation accounting is only meaningful if the counters
    stay exact under that interleaving.

    Parameters
    ----------
    capacity:
        Maximum letters retained.  Counters (:attr:`quarantined`,
        :attr:`by_reason`) are exact regardless of eviction.
    """

    def __init__(self, capacity: int = 1000):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.quarantined = 0
        self.evicted = 0
        self.by_reason: Dict[str, int] = {}
        self.evicted_counts: Dict[str, int] = {}
        self._letters: Deque[DeadLetter] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def put(self, record: LogRecord, reason: str, detail: str = "") -> None:
        """Quarantine one record under ``reason``."""
        with self._lock:
            self.quarantined += 1
            self.by_reason[reason] = self.by_reason.get(reason, 0) + 1
            if len(self._letters) == self.capacity:
                evicted = self._letters[0]
                self.evicted += 1
                self.evicted_counts[evicted.reason] = (
                    self.evicted_counts.get(evicted.reason, 0) + 1
                )
            self._letters.append(
                DeadLetter(record=record, reason=reason, detail=detail)
            )

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(self._letters)

    def letters_for(self, reason: str) -> Tuple[DeadLetter, ...]:
        """The retained letters quarantined under one reason."""
        return tuple(letter for letter in self._letters if letter.reason == reason)

    def snapshot(self) -> DeadLetterSnapshot:
        """An immutable copy of the current state."""
        with self._lock:
            return DeadLetterSnapshot(
                letters=tuple(self._letters),
                by_reason=tuple(sorted(self.by_reason.items())),
                quarantined=self.quarantined,
                evicted=self.evicted,
                evicted_counts=tuple(sorted(self.evicted_counts.items())),
            )

    def restore(self, snapshot: Optional[DeadLetterSnapshot]) -> None:
        """Reset this queue to a previously taken snapshot.

        ``None`` resets to empty — the state before any snapshot existed.
        A snapshot holding more letters than this queue's capacity keeps
        the newest and counts the rest as evictions.
        """
        with self._lock:
            self._letters.clear()
            self.by_reason = {}
            self.evicted_counts = {}
            if snapshot is None:
                self.quarantined = 0
                self.evicted = 0
                return
            self._letters.extend(snapshot.letters)
            self.by_reason = dict(snapshot.by_reason)
            self.quarantined = snapshot.quarantined
            self.evicted = snapshot.evicted
            self.evicted_counts = dict(snapshot.evicted_counts)
            overflow = snapshot.letters[:-self.capacity]
            self.evicted += len(overflow)
            for letter in overflow:
                self.evicted_counts[letter.reason] = (
                    self.evicted_counts.get(letter.reason, 0) + 1
                )

    def summary(self) -> str:
        """One line: total plus per-reason counts, stable order."""
        if not self.quarantined:
            return "0 quarantined"
        reasons = ", ".join(
            f"{reason}: {count}" for reason, count in sorted(self.by_reason.items())
        )
        text = f"{self.quarantined} quarantined ({reasons})"
        if self.evicted:
            evictions = ", ".join(
                f"{reason}: {count}"
                for reason, count in sorted(self.evicted_counts.items())
            )
            text += f"; {self.evicted} letters evicted ({evictions})"
        return text
