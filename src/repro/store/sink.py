"""The engine sink that spills the ruled-on alert flow to a columnar store.

:class:`ColumnarSink` replaces :class:`~repro.engine.stages.AlertListSink`
when a run spills: instead of appending to Python lists it streams every
``(alert, kept)`` verdict into a :class:`ColumnarStoreWriter`, and its
``raw_alerts`` / ``filtered_alerts`` attributes become lazy
:class:`~repro.store.query.StoredAlertSequence` views — same surface,
bounded memory.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..core.categories import Alert
from ..core.filtering import FilterReport
from .columnar import ColumnarStoreWriter
from .query import StoredAlertSequence


class ColumnarSink:
    """The spill-to-disk sink: verdicts go to column pages, not lists.
    It is its run's alert log; a checkpoint names its committed seq."""

    lists = None  # nothing for a checkpoint to hold: the store has it

    def __init__(self, report: FilterReport, writer: ColumnarStoreWriter):
        self.report = report
        self.writer = writer

    def begin(self, checkpoint) -> None:
        """Open the store fresh, or cut back to ``checkpoint``'s seq."""
        self.writer.begin(
            0 if checkpoint is None else checkpoint.watermark(store=True)[0]
        )

    def commit(self) -> Dict[str, int]:
        """Commit the writer: a barrier no page spans."""
        return {"seq": self.writer.commit()}

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
