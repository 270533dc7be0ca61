"""Engine sinks that spill the ruled-on alert flow to a columnar store.

:class:`ColumnarSink` replaces :class:`~repro.engine.stages.AlertListSink`
when a run spills: instead of appending to Python lists it streams every
``(alert, kept)`` verdict into a :class:`ColumnarStoreWriter`, and its
``raw_alerts`` / ``filtered_alerts`` attributes become lazy
:class:`~repro.store.query.StoredAlertSequence` views — same surface,
bounded memory.

:class:`StoreTeeSink` is the service-side composition: it wraps any
existing sink (the tenant's journaling sink) and tees the flow into a
writer without disturbing the inner sink's authority over counters and
tails, mirroring :class:`~repro.engine.stages.ObservingSink`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..core.categories import Alert
from ..core.filtering import FilterReport
from ..engine.stages import Sink
from .columnar import ColumnarStoreWriter
from .query import StoredAlertSequence


class ColumnarSink:
    """The spill-to-disk sink: verdicts go to column pages, not lists."""

    def __init__(self, report: FilterReport, writer: ColumnarStoreWriter):
        self.report = report
        self.writer = writer

    @property
    def raw_alerts(self) -> StoredAlertSequence:
        """Every tagged alert, as a lazy scan over committed + buffered
        state (readers see committed pages; call ``writer.commit()``
        before reading mid-run)."""
        return StoredAlertSequence(self.writer.reader(), kept=None)

    @property
    def filtered_alerts(self) -> StoredAlertSequence:
        return StoredAlertSequence(self.writer.reader(), kept=True)

    def emit_batch(self, pairs: Sequence[Tuple[Alert, bool]]) -> None:
        record = self.report.record
        append = self.writer.append
        for alert, kept in pairs:
            record(alert, kept)
            append(alert, kept)


class StoreTeeSink:
    """Tee a sink's alert flow into a columnar store writer.

    The inner sink stays authoritative for everything downstream reads
    (report, tails, counters); the writer is a side effect.  Commit
    cadence is the owner's job — the service commits at the same
    barriers it checkpoints the tenant.
    """

    def __init__(self, inner: Sink, writer: ColumnarStoreWriter):
        self.inner = inner
        self.writer = writer

    @property
    def report(self):
        return self.inner.report  # type: ignore[attr-defined]

    @property
    def raw_alerts(self):
        return self.inner.raw_alerts  # type: ignore[attr-defined]

    @property
    def filtered_alerts(self):
        return self.inner.filtered_alerts  # type: ignore[attr-defined]

    def emit_batch(self, pairs: Sequence[Tuple[Alert, bool]]) -> None:
        self.inner.emit_batch(pairs)
        self.writer.append_batch(pairs)
