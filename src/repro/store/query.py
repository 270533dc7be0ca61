"""``AlertQuery`` — the single access path from analytics to alerts.

A query is a lightweight, re-iterable view over a store backend (the
spilled :class:`~repro.store.columnar.ColumnarStore` or the in-memory
:class:`~repro.store.memory.MemoryAlertStore`) narrowed by two pushdown
predicates: the kept/raw axis and a category set — exactly the
partition keys of the on-disk layout, so a narrowed query over a
spilled store opens only the matching column files.

Three tiers of access, cheapest first:

* **aggregates** (``count``, ``count_by_category``, ``count_by_type``,
  ``time_bounds``, ``categories``) answer from the partition manifest
  without touching a column file;
* **column scans** (``timestamps``, ``category_timestamps``,
  ``chunks``) return numpy arrays and parallel lists instead of
  :class:`Alert` values.  Only the result is columnar: on a spilled
  store the two timestamp scans still merge the partitions as one
  Python tuple per row, and ``chunks`` iterates whole alerts;
* **object scans** (iteration) reconstruct :class:`Alert` values in
  exact emit order for the analyses that need full rows, one decoded
  page per partition in memory at a time.

Queries are plain iterables of alerts, so every single-pass analysis
function accepts one unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.categories import Alert, AlertType


@dataclass
class AlertChunk:
    """One chunk of a chunked column scan: parallel columns instead of
    :class:`Alert` values."""

    timestamps: "np.ndarray"  # float64
    categories: List[str]
    sources: List[str]

    def __len__(self) -> int:
        return len(self.timestamps)


class AlertQuery:
    """A narrowable, re-iterable view over an alert store."""

    def __init__(self, store, kept: Optional[bool] = None,
                 categories: Optional[Tuple[str, ...]] = None) -> None:
        self.store = store
        self.kept = kept
        self.category_filter = categories

    # -- narrowing -------------------------------------------------------

    def raw(self) -> "AlertQuery":
        """All tagged alerts (pre-filter)."""
        return AlertQuery(self.store, kept=None,
                          categories=self.category_filter)

    def filtered(self) -> "AlertQuery":
        """Alerts the filtering stage kept."""
        return AlertQuery(self.store, kept=True,
                          categories=self.category_filter)

    def where(self, *categories: str) -> "AlertQuery":
        """Narrow to the given categories (partition-key pushdown)."""
        return AlertQuery(self.store, kept=self.kept,
                          categories=tuple(categories))

    # -- aggregates (manifest pushdown, no scan) -------------------------

    def count(self) -> int:
        return self.store.count(kept=self.kept,
                                categories=self.category_filter)

    def count_by_category(self) -> Dict[str, Tuple[int, int]]:
        """``{category: (raw, kept)}`` over the selected partitions."""
        return self.store.count_by_category(categories=self.category_filter)

    def count_by_type(self) -> Dict[AlertType, Tuple[int, int]]:
        """``{alert_type: (raw, kept)}`` — each category has exactly one
        type, so this reads partition metadata only."""
        if self.category_filter is None:
            return self.store.count_by_type()
        counts: Dict[AlertType, Tuple[int, int]] = {}
        for category, (raw, kept) in self.count_by_category().items():
            alert_type = self.store.category_alert_type(category)
            if alert_type is None:
                continue
            prev_raw, prev_kept = counts.get(alert_type, (0, 0))
            counts[alert_type] = (prev_raw + raw, prev_kept + kept)
        return counts

    def categories(self) -> set:
        found = self.store.categories(kept=self.kept)
        if self.category_filter is not None:
            found &= set(self.category_filter)
        return found

    def time_bounds(self) -> Optional[Tuple[float, float]]:
        """``(min, max)`` timestamp over the selection, or ``None``."""
        return self.store.time_bounds(kept=self.kept,
                                      categories=self.category_filter)

    # -- column scans ----------------------------------------------------

    def timestamps(self) -> "np.ndarray":
        """Selected timestamps in emit order, as float64."""
        if self.category_filter is None:
            return self.store.timestamps(kept=self.kept)
        return np.asarray([a.timestamp for a in self], dtype=np.float64)

    def category_timestamps(self, category: str) -> "np.ndarray":
        """One category's timestamps in emit order (single-partition
        column scan on a spilled store)."""
        return self.store.category_timestamps(category, kept=self.kept)

    def chunks(self, size: int = 4096) -> Iterator[AlertChunk]:
        """Chunked column scan: bounded batches of parallel columns."""
        timestamps: List[float] = []
        categories: List[str] = []
        sources: List[str] = []
        for alert in self:
            timestamps.append(alert.timestamp)
            categories.append(alert.category)
            sources.append(alert.source)
            if len(timestamps) >= size:
                yield AlertChunk(np.asarray(timestamps, dtype=np.float64),
                                 categories, sources)
                timestamps, categories, sources = [], [], []
        if timestamps:
            yield AlertChunk(np.asarray(timestamps, dtype=np.float64),
                             categories, sources)

    # -- object scan -----------------------------------------------------

    def __iter__(self) -> Iterator[Alert]:
        return self.store.iter_alerts(kept=self.kept,
                                      categories=self.category_filter)

    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        return self.count() > 0

    def __repr__(self) -> str:
        axis = {None: "raw+dropped", True: "kept", False: "dropped"}[self.kept]
        cats = "*" if self.category_filter is None \
            else ",".join(self.category_filter)
        return (f"AlertQuery({type(self.store).__name__}, {axis}, "
                f"categories={cats})")


class StoredAlertSequence(Sequence):
    """A read-only ``Sequence[Alert]`` over a store selection.

    This is what keeps ``PipelineResult.raw_alerts`` /
    ``.filtered_alerts`` working when the run spilled to disk: length
    is a manifest pushdown, iteration is a bounded-memory scan, and
    equality against plain lists is elementwise — so existing callers
    and tests cannot tell it from the list it replaces, except that
    random indexing is O(n) (it is a scan, not an array).
    """

    def __init__(self, store, kept: Optional[bool] = None) -> None:
        self._store = store
        self._kept = kept
        self._len: Optional[int] = None

    @property
    def query(self) -> AlertQuery:
        return AlertQuery(self._store, kept=self._kept)

    def __len__(self) -> int:
        if self._len is None:
            self._len = self._store.count(kept=self._kept)
        return self._len

    def __iter__(self) -> Iterator[Alert]:
        return self._store.iter_alerts(kept=self._kept)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += len(self)
        if index < 0:
            raise IndexError(index)
        for alert in islice(self, index, index + 1):
            return alert
        raise IndexError(index)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, StoredAlertSequence)):
            if len(other) != len(self):
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        axis = "kept" if self._kept else "raw"
        return f"StoredAlertSequence({axis}, n={len(self)})"
