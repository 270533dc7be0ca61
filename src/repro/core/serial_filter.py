"""The serial temporal-then-spatial filter baseline (Liang et al.).

Previous work on the BG/L prototype and production logs [Liang et al.,
DSN'05 and DSN'06] applied two filters *serially* (paper, Section 3.3.2):

1. **Temporal filter** — per source: "coalesces alerts within T seconds of
   each other on a given source into a single alert.  For example, if a
   node reports a particular alert every T seconds for a week, the temporal
   filter keeps only the first."  Redundant alerts refresh the per-source
   clock, so a long chain collapses to its head.
2. **Spatial filter** — across sources, over the temporal filter's output:
   "removes an alert if some other source had previously reported that
   alert within T seconds."

Both stages are the redundancy clock of :mod:`repro.core.filtering`: the
temporal stage keyed by ``(source, category)``, the spatial stage by
category.  The spatial stage need not ask whether the earlier alert came
from *another* source: on a time-sorted stream, a same-source,
same-category predecessor that survived the temporal stage is always at
least ``T`` back, so it never suppresses.

The paper's critique, which this implementation lets you measure directly:
"serial filtering fails to remove alerts that share a root cause ... the
problem arises when the temporal filter removes messages that the spatial
filter would have used as cues that the failure had already been reported
by another source."  The simultaneous filter removes those extra
duplicates, and being one pass instead of two it also runs faster (~16 %
on the Spirit logs).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator

from .categories import Alert
from .filtering import DEFAULT_THRESHOLD, SpatioTemporalFilter, log_filter


def serial_filter(
    alerts: Iterable[Alert],
    threshold: float = DEFAULT_THRESHOLD,
) -> Iterator[Alert]:
    """The full serial pipeline: temporal filter, then spatial filter.
    Input must be sorted by non-decreasing time; a timestamp that runs
    backwards raises :class:`~repro.core.filtering.OutOfOrderError`."""
    temporal = SpatioTemporalFilter(
        threshold, key=attrgetter("source", "category")
    )
    return log_filter(filter(temporal.offer, alerts), threshold)
