"""Central log collection: merge per-origin streams into one log.

Models the collection fan-in of Section 3.1: ``syslog-ng`` servers
(``tbird-admin1``, ``sadmin2``, ``ladmin2``), the Red Storm SMW, and the
BG/L MMCS-to-DB2 relay all receive many concurrent streams and store one
merged, time-ordered log — which is what analysts get.  Corruption happens
here too: transit damage and write races mangle a small fraction of lines
(Section 3.2.1).

The collector is defensive the way a real logging server is: per-origin
streams that arrive out of order are *counted* (``disordered``), and when
a dead-letter queue is attached, records the server cannot store — broken
timestamps, disorder beyond the tolerance — are quarantined rather than
written into the merged log or crashed on.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, Optional

from ..logmodel.record import LogRecord
from ..resilience.deadletter import (
    DeadLetterQueue,
    REASON_INVALID_RECORD,
    REASON_OUT_OF_ORDER,
)
from .corruptor import Corruptor


def merge_streams(*streams: Iterable[LogRecord]) -> Iterator[LogRecord]:
    """Merge time-ordered record streams into one time-ordered stream.

    Lazy: ``heapq.merge`` holds one pending record per stream, so merging
    thousands of incident streams costs O(streams) memory.  The output is
    time-ordered only if every input is — adversarial (out-of-order)
    inputs yield an out-of-order merge, which :class:`Collector` detects
    and accounts for.
    """
    return heapq.merge(*streams, key=lambda record: record.timestamp)


class Collector:
    """A logging server: merges streams, optionally corrupting in transit.

    Tracks the same counters a real collector's stats output would:
    messages stored, messages detected as damaged, messages that arrived
    out of order, and messages quarantined as unstorable.

    Parameters
    ----------
    name:
        The server's hostname (``"tbird-admin1"``...).
    corruptor:
        Optional in-transit damage model.
    dead_letters:
        When given, unstorable records (non-finite timestamps, regressions
        beyond ``reorder_tolerance``) are quarantined there instead of
        stored; without it the historical store-everything behavior holds.
    reorder_tolerance:
        How far (seconds) a record's timestamp may precede the newest
        stored timestamp before quarantine.  The default of one second
        matches syslog's timestamp granularity: same-second interleaving
        is normal fan-in behavior, not disorder worth refusing.
    """

    def __init__(
        self,
        name: str,
        corruptor: Optional[Corruptor] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
        reorder_tolerance: float = 1.0,
    ):
        if reorder_tolerance < 0:
            raise ValueError("reorder_tolerance must be non-negative")
        self.name = name
        self.corruptor = corruptor
        self.dead_letters = dead_letters
        self.reorder_tolerance = reorder_tolerance
        self.stored = 0
        self.corrupted = 0
        self.disordered = 0
        self.quarantined = 0

    def _storable(self, record: LogRecord) -> bool:
        try:
            return math.isfinite(record.timestamp)
        except TypeError:
            return False

    def collect(self, *streams: Iterable[LogRecord]) -> Iterator[LogRecord]:
        merged = merge_streams(*streams)
        if self.corruptor is not None:
            merged = self.corruptor.apply(merged)
        high_water: Optional[float] = None
        for record in merged:
            if not self._storable(record):
                if self.dead_letters is not None:
                    self.dead_letters.put(record, REASON_INVALID_RECORD)
                    self.quarantined += 1
                    continue
            elif high_water is not None and record.timestamp < high_water:
                self.disordered += 1
                if (
                    self.dead_letters is not None
                    and high_water - record.timestamp > self.reorder_tolerance
                ):
                    self.dead_letters.put(record, REASON_OUT_OF_ORDER)
                    self.quarantined += 1
                    continue
            else:
                high_water = record.timestamp
            self.stored += 1
            if record.corrupted:
                self.corrupted += 1
            yield record
