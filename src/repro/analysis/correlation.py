"""Spatial and inter-tag correlation analysis (Figure 3, Section 4).

Two findings in the paper rest on correlation measurement:

* **spatial correlation** — the Thunderbird CPU clock bug was found
  "only after noticing that its occurrence was spatially correlated across
  nodes": alerts of one category landing on *many distinct nodes at nearly
  the same time* indicate a shared trigger, not independent hardware decay;
* **inter-tag correlation** — Liberty's ``GM_PAR``/``GM_LANAI`` pair
  (Figure 3): "GM_LANAI messages do not always follow GM_PAR messages, nor
  vice versa.  However, the correlation is clear."

Both are computed by one kernel, the streaming
:class:`~repro.streaming.miner.StreamingCorrelationMiner`: the functions
here hand it every alert, time-sorted, and flush it once.  The miner is
imported on first use, so importing this module never loads
:mod:`repro.streaming`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from ..core.categories import Alert


@dataclass(frozen=True)
class SpatialCorrelation:
    """Spatial-correlation measurements for one category."""

    category: str
    incidents: int                 # bursts observed
    mean_distinct_sources: float   # distinct nodes per burst
    multi_source_fraction: float   # bursts touching >1 node

    @property
    def is_spatially_correlated(self) -> bool:
        """The CPU-bug signature: most bursts span several nodes."""
        return self.multi_source_fraction > 0.5 and self.mean_distinct_sources > 2.0


@dataclass(frozen=True)
class TagCorrelation:
    """Lagged co-occurrence between two categories (the Figure 3 pair)."""

    category_a: str
    category_b: str
    count_a: int
    count_b: int
    coincidences: int        # a-alerts with a b-alert within the window
    coincidence_rate: float  # coincidences / min(count_a, count_b)
    mean_lag: float          # mean signed (b - a) lag over coincidences

    @property
    def is_correlated(self) -> bool:
        return self.coincidences >= 3 and self.coincidence_rate >= 0.5


def _mine(
    rows: List[Tuple[float, str, str]],
    pair_window: float = 300.0,
    spatial_window: float = 60.0,
):
    """A flushed miner over complete ``(time, category, source)`` rows,
    fed in time order (a stable sort: equal timestamps keep their input
    order).  Its caps are out of the input's reach — every category pair
    and every row fits — so nothing is pruned and the whole input is
    mined as one slice."""
    from ..streaming.miner import StreamingCorrelationMiner

    k = len({row[1] for row in rows})
    miner = StreamingCorrelationMiner(
        pair_window=pair_window,
        spatial_window=spatial_window,
        max_edges=k * (k - 1) // 2,
        max_source_edges=len(rows),
    )
    rows.sort(key=itemgetter(0))
    miner.extend_columns(
        [row[0] for row in rows], [row[1] for row in rows], [row[2] for row in rows]
    )
    miner.advance(math.inf)
    return miner


def spatial_correlation(
    alerts: Iterable[Alert],
    window: float = 60.0,
) -> Dict[str, SpatialCorrelation]:
    """Measure, per category, how many distinct nodes each burst touches.

    Bursts are time-ordered runs of same-category alerts with gaps <=
    ``window`` (tuple-style grouping).  A physical per-node process (ECC)
    yields single-node bursts; a shared software trigger (the SMP clock
    bug) yields multi-node bursts.
    """
    rows = [(a.timestamp, a.category, a.source) for a in alerts]
    return _mine(rows, spatial_window=window).spatial()


def tag_correlation(
    alerts: Iterable[Alert],
    category_a: str,
    category_b: str,
    window: float = 300.0,
) -> TagCorrelation:
    """Measure how often ``category_a`` and ``category_b`` fire together.

    For each alert of the rarer category, look for the nearest alert of
    the other within ±``window`` seconds.  This is the quantitative form
    of eyeballing Figure 3's two aligned scatter rows.

    Accepts a materialized sequence or an
    :class:`~repro.store.query.AlertQuery` — a query answers with two
    single-partition column scans (predicate pushdown on the category
    key) instead of a full pass.
    """
    pushdown = getattr(alerts, "category_timestamps", None)
    if callable(pushdown):
        times_a = [float(t) for t in pushdown(category_a)]
        times_b = [float(t) for t in pushdown(category_b)]
        return tag_correlation_from_times(
            category_a, category_b, times_a, times_b, window
        )
    # Two passes are needed, so a one-shot generator would silently lose
    # the second category; demand a materialized sequence.
    if not isinstance(alerts, (list, tuple)):
        raise TypeError(
            "tag_correlation requires a list of alerts or an AlertQuery"
        )
    times_a = [a.timestamp for a in alerts if a.category == category_a]
    times_b = [a.timestamp for a in alerts if a.category == category_b]
    return tag_correlation_from_times(
        category_a, category_b, times_a, times_b, window
    )


def tag_correlation_from_times(
    category_a: str,
    category_b: str,
    times_a: Sequence[float],
    times_b: Sequence[float],
    window: float = 300.0,
) -> TagCorrelation:
    """The :func:`tag_correlation` computation over pre-extracted
    timestamp columns (what a chunked column scan hands over)."""
    rows = [(t, category_a, "") for t in times_a]
    rows += [(t, category_b, "") for t in times_b]
    return _mine(rows, pair_window=window).tag_correlation(category_a, category_b)


def correlation_matrix(
    alerts: Iterable[Alert],
    categories: Sequence[str],
    window: float = 300.0,
) -> Dict[Tuple[str, str], TagCorrelation]:
    """Pairwise tag correlations over a category list (upper triangle),
    from one mine over just those categories: an
    :class:`~repro.store.query.AlertQuery` answers with one column scan
    per category, anything else with one pass.  A category with no
    alerts gets all-zero rows."""
    pushdown = getattr(alerts, "category_timestamps", None)
    if callable(pushdown):
        rows = [(float(t), category, "") for category in dict.fromkeys(categories)
                for t in pushdown(category)]
    else:
        wanted = set(categories)
        rows = [(a.timestamp, a.category, "") for a in alerts
                if a.category in wanted]
    miner = _mine(rows, pair_window=window)
    return {
        (cat_a, cat_b): miner.tag_correlation(cat_a, cat_b)
        for i, cat_a in enumerate(categories)
        for cat_b in categories[i + 1:]
    }
