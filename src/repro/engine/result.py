"""The result object every driver produces: one machine's pipeline run.

:class:`PipelineResult` lives with the stage engine because the result
is a property of the *semantics* (the
:class:`~repro.engine.path.AlertPath`), not of any particular execution
driver.  :mod:`repro.api` re-exports it as ``api.PipelineResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from ..core.categories import Alert
from ..core.filtering import DEFAULT_THRESHOLD, FilterReport
from ..analysis.severity_eval import SeverityCrossTab
from ..logio.stats import LogStats
from ..parallel.sharded import ShardStats
from ..resilience.backpressure import OverloadReport
from ..resilience.deadletter import DeadLetterQueue, DeadLetterSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..resilience.checkpoint import CheckpointManager
    from ..simulation.generator import GeneratedLog
    from ..store.columnar import ColumnarStore
    from ..store.query import AlertQuery
    from ..streaming.stage import PredictionReport


@dataclass
class PipelineResult:
    """Everything one machine's pipeline run produced."""

    system: str
    stats: LogStats
    raw_alerts: List[Alert]
    filtered_alerts: List[Alert]
    filter_report: FilterReport
    severity_tab: SeverityCrossTab
    corrupted_messages: int
    generated: Optional["GeneratedLog"] = None
    threshold: float = DEFAULT_THRESHOLD
    dead_letters: Optional[DeadLetterQueue] = None
    degraded: bool = False
    restarts: int = 0
    failure_log: List[str] = field(default_factory=list)
    overload: Optional[OverloadReport] = None
    shard_stats: Optional[ShardStats] = None
    #: The checkpoint manager the run snapshotted into, when it
    #: checkpointed (``checkpoint_every=``, ``state_dir=``, or a
    #: supervised run that finished); ``checkpoints.latest`` is the
    #: resume point after a crash.
    checkpoints: Optional["CheckpointManager"] = None
    #: Dead-letter accounting as it stood the moment ``supervise``'s
    #: restart budget ran out — *before* the degraded result rolled the
    #: queue back to the last checkpoint.  Quarantines that happened
    #: during failed attempts (after the final checkpoint) are only here,
    #: so post-mortem conservation checks reconcile against this snapshot,
    #: not against ``dead_letters``.
    final_dead_letters: Optional[DeadLetterSnapshot] = None
    #: Online-prediction outcome (warnings + correlation-graph snapshot)
    #: when the run was started with ``predict=`` — see
    #: :class:`repro.streaming.stage.PredictionReport`.
    prediction: Optional["PredictionReport"] = None
    #: The spilled columnar store this run wrote, when started with
    #: ``store_dir=``.  ``raw_alerts`` / ``filtered_alerts`` are then
    #: lazy scan views over it rather than lists, and :attr:`alerts`
    #: queries it with partition pushdown.  ``None`` for in-memory runs
    #: — :attr:`alerts` still works, backed by the lists.
    store: Optional["ColumnarStore"] = None
    #: Cached in-memory store backend for :attr:`alerts` on list-backed
    #: results (built on first use; never part of equality/repr).
    _alert_store: Optional[object] = field(
        default=None, repr=False, compare=False
    )

    @property
    def alerts(self) -> "AlertQuery":
        """The single analytics access path: a re-iterable, narrowable
        :class:`~repro.store.query.AlertQuery` over this run's alerts —
        partition/column pushdown when the run spilled to disk, a thin
        view over the in-memory lists otherwise."""
        from ..store.query import AlertQuery

        if self.store is not None:
            return AlertQuery(self.store)
        if self._alert_store is None:
            from ..store.memory import MemoryAlertStore

            self._alert_store = MemoryAlertStore.from_lists(
                self.system, self.raw_alerts, self.filtered_alerts
            )
        return AlertQuery(self._alert_store)

    @property
    def message_count(self) -> int:
        return self.stats.messages

    @property
    def raw_alert_count(self) -> int:
        return len(self.raw_alerts)

    @property
    def filtered_alert_count(self) -> int:
        return len(self.filtered_alerts)

    @property
    def observed_categories(self) -> int:
        if self.store is not None:
            return len(self.store.categories())
        return len({alert.category for alert in self.raw_alerts})

    @property
    def dead_letter_count(self) -> int:
        return self.dead_letters.quarantined if self.dead_letters else 0

    def category_counts(self) -> Dict[str, List[int]]:
        """Per-category [raw, filtered] counts (the Table 4 columns)."""
        return dict(self.filter_report.by_category)

    def alert_type_counts(self) -> Dict[object, tuple]:
        """``{AlertType: (raw, kept)}`` — the Table 3 cells.  A manifest
        pushdown on spilled runs; a single list pass otherwise."""
        return self.alerts.count_by_type()

    def summary(self) -> str:
        """A Table 2-style one-machine summary."""
        lines = [
            f"system:            {self.system}",
            f"messages:          {self.message_count:,}",
            f"log size:          {self.stats.raw_bytes:,} bytes "
            f"({self.stats.compressed_bytes:,} gzipped)",
            f"span:              {self.stats.days:.1f} days "
            f"({self.stats.rate_bytes_per_second:.1f} bytes/sec)",
            f"alerts (raw):      {self.raw_alert_count:,}",
            f"alerts (filtered): {self.filtered_alert_count:,} "
            f"(T={self.threshold:g}s)",
            f"categories:        {self.observed_categories}",
            f"corrupted:         {self.corrupted_messages:,}",
        ]
        if self.dead_letters is not None and self.dead_letters.quarantined:
            lines.append(f"dead letters:      {self.dead_letters.summary()}")
        if self.overload is not None:
            lines.extend(self.overload.summary_lines())
        if self.shard_stats is not None:
            lines.append(self.shard_stats.summary_line())
        if self.checkpoints is not None:
            latest = self.checkpoints.latest
            at = (
                f"latest at record {latest.records_consumed:,}"
                if latest is not None else "none retained"
            )
            lines.append(
                f"checkpoints:       {self.checkpoints.taken} snapshots "
                f"({at})"
            )
            store = getattr(self.checkpoints, "store", None)
            status = getattr(store, "status", None)
            if status is not None and status.degraded:
                lines.append(status.summary_line())
        if self.restarts:
            lines.append(f"restarts:          {self.restarts}")
        if self.degraded:
            lines.append(
                "degraded:          yes (restart budget exhausted; "
                "counts cover the stream up to the last checkpoint)"
            )
        if self.prediction is not None:
            rows = self.prediction.summary_lines()
            lines.append(f"prediction:        {rows[0]}")
            lines.extend(f"                   {row}" for row in rows[1:])
        if self.final_dead_letters is not None:
            final = self.final_dead_letters
            reasons = ", ".join(
                f"{reason}: {count}" for reason, count in final.by_reason
            )
            lines.append(
                f"final dead-letter accounting (at exhaustion): "
                f"{final.quarantined} quarantined"
                + (f" ({reasons})" if reasons else "")
            )
        return "\n".join(lines)
