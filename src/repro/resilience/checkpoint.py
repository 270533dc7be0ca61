"""Checkpoint/resume for the streaming pipeline.

A pipeline run over a deterministic stream is resumable if we can snapshot
every piece of mutable state plus the count of input records consumed:
re-present the same stream, skip the consumed prefix, restore the state,
and the run completes as if never interrupted — byte-identical statistics
included, because the zlib compressor state is part of the snapshot.

:class:`CheckpointManager` owns the cadence (snapshot every N input
records) and retains the latest snapshot; :class:`PipelineCheckpoint` is
the snapshot itself, deep enough that the live run mutating onward never
contaminates it.  ``api.run_stream(..., checkpointer=...,
resume_from=...)`` does the wiring, and is the only resume path:
:func:`~repro.resilience.supervisor.supervise` restarts a crashed run by
passing its manager's ``latest`` back in, and ``state_dir`` resumes load
the same snapshot from disk, its alerts read back from the state dir's
:class:`~repro.resilience.durability.AlertCopy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.severity_eval import SeverityCrossTab
from ..core.categories import Alert
from ..core.filtering import FilterReport, SpatioTemporalFilter
from ..logio.stats import StatsCollector, StatsSnapshot
from .deadletter import DeadLetterSnapshot


def copy_report(report: FilterReport) -> FilterReport:
    """A deep copy of a :class:`FilterReport` (per-category lists cloned)."""
    return FilterReport(
        threshold=report.threshold,
        raw_total=report.raw_total,
        filtered_total=report.filtered_total,
        by_category={name: list(pair) for name, pair in report.by_category.items()},
    )


def copy_severity(tab: SeverityCrossTab) -> SeverityCrossTab:
    """A deep copy of a severity cross-tabulation."""
    return SeverityCrossTab(messages=dict(tab.messages), alerts=dict(tab.alerts))


@dataclass(frozen=True)
class PipelineCheckpoint:
    """Complete resumable state of one ``run_stream`` at a record boundary.

    ``records_consumed`` counts records pulled from the *input* stream
    (including any that were quarantined), which is exactly how many to
    skip when the deterministic stream is re-presented.

    A checkpoint is a watermark, not a history: it holds no alerts, only
    ``store_state``, the ``seq`` its run's alert log had reached.  The
    log holds the alerts: the columnar store of a ``store_dir`` run, a
    ``state_dir``'s ``alerts.log``, or in memory the run's append-only
    alert lists, which ``alert_log`` references.
    """

    system: str
    threshold: float
    records_consumed: int
    stats: StatsSnapshot
    filter_state: Dict[str, Any]
    report: FilterReport
    severity: SeverityCrossTab
    corrupted_messages: int
    dead_letters: Optional[DeadLetterSnapshot] = None
    #: The shed policy's duplicate-lookback state (category -> last seen
    #: timestamp), captured by bounded runs so a resumed policy keeps its
    #: duplicate memory; ``None`` for unbounded runs.
    shed_state: Optional[Dict[str, float]] = None
    #: The bounded run's overload tallies, beside ``shed_state``: the
    #: queue's ledger and pressure clock (peak, credits, samples, the
    #: sustain streak and latch), records offered/shed/spilled by class,
    #: stage throughput and events — plain dicts, ints and strings.  A
    #: resumed run's report so covers the same records as its stats;
    #: ``None`` for unbounded runs.
    overload_state: Optional[Dict[str, Any]] = None
    #: How many snapshots the run had taken when this one was stamped
    #: (this one included).  Resuming restores the manager's ``taken``
    #: from it, so the snapshot count a resumed run reports covers the
    #: whole logical run, not just the slice since the last crash.
    snapshots_taken: int = 0
    #: Online-prediction state (the miner's correlation graph, the
    #: ensemble's members/warnings, and the stage's reorder buffer) when
    #: the run had ``predict=`` enabled — see
    #: :meth:`repro.streaming.stage.PredictionStage.state_dict`.
    prediction_state: Optional[Dict[str, Any]] = None
    #: The alert log's watermark: the first ``seq`` alerts the run
    #: emitted are in its log.  A columnar store's (``store_dir``) is
    #: ``{"seq": n}``, and resume truncates the store back to it before
    #: the re-presented stream re-emits the suffix.  Alert lists' is
    #: ``{"seq": n, "kept": m}``, their two lengths; resume copies those
    #: prefixes.  ``None`` only in state written before watermarks.
    store_state: Optional[Dict[str, Any]] = None
    #: The in-memory log: the ``(raw, filtered)`` lists themselves, which
    #: only ever grow, so holding them costs no copy.  Never on disk
    #: (:meth:`__getstate__` drops it); a state dir's ``AlertCopy`` puts
    #: the lists it reads back here on load.
    alert_log: Optional[Tuple[List[Alert], List[Alert]]] = field(
        default=None, compare=False, repr=False
    )

    def __getstate__(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k != "alert_log"}

    @property
    def in_store(self) -> bool:
        """Whether the run's alert log is a columnar store, not its
        alert lists (in memory or a state dir's copy)."""
        return self.store_state is not None and "kept" not in self.store_state

    def watermark(self, store: bool) -> Tuple[int, int]:
        """``(seq, kept)``: how far the run's alert log had reached
        (``kept`` is 0 for a store).  ``ValueError`` when a run whose
        log is a store (``store``) or not resumes the other kind."""
        if self.in_store != store:
            raise ValueError(
                "checkpoint was taken with a columnar store; resume it "
                "with the same store_dir" if self.in_store else
                "checkpoint was taken without a columnar store; resume it "
                "without store_dir"
            )
        mark = self.store_state or {}
        return mark.get("seq", 0), mark.get("kept", 0)

    def restore_stats(self) -> StatsCollector:
        """A live stats collector continuing from the snapshot."""
        return StatsCollector.from_snapshot(self.stats)

    def restore_filter(self) -> SpatioTemporalFilter:
        """A live filter continuing from the snapshot."""
        stf = SpatioTemporalFilter(self.threshold)
        stf.load_state_dict(self.filter_state)
        return stf

    def restore_report(self) -> FilterReport:
        return copy_report(self.report)

    def restore_severity(self) -> SeverityCrossTab:
        return copy_severity(self.severity)


@dataclass
class CheckpointManager:
    """Cadence and retention for pipeline snapshots.

    ``every`` is the snapshot interval in input records.  Only the latest
    snapshot is retained: resuming replays at most ``every`` records, and
    a single retained snapshot keeps memory bounded no matter how long the
    stream runs.
    """

    every: int = 2000
    latest: Optional[PipelineCheckpoint] = None
    taken: int = 0
    #: Optional durable backend (``repro.resilience.durability.
    #: CheckpointStore`` or anything with a ``save(checkpoint) -> bool``
    #: and a ``status``): every retained snapshot is also persisted, so
    #: the resume point survives the process.  Persistence failures
    #: degrade (the store's status latches and counts); they never stop
    #: the in-memory run.
    store: Optional[Any] = None
    _last_at: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("checkpoint interval must be at least 1 record")

    def due_in(self, records_consumed: int) -> int:
        """Records until the next snapshot is due (at least one), so a
        batching driver can end a batch exactly on the barrier."""
        return max(1, self.every - (records_consumed - self._last_at))

    def maybe(
        self,
        records_consumed: int,
        snapshot: Callable[[], PipelineCheckpoint],
    ) -> bool:
        """Take a snapshot if the interval has elapsed; ``True`` if taken."""
        if records_consumed - self._last_at < self.every:
            return False
        checkpoint = snapshot()
        self.taken += 1
        if getattr(checkpoint, "snapshots_taken", self.taken) != self.taken:
            checkpoint = dc_replace(checkpoint, snapshots_taken=self.taken)
        self.latest = checkpoint
        self._last_at = records_consumed
        if self.store is not None:
            self.store.save(checkpoint)
        return True

    def prime(self, checkpoint: Optional[PipelineCheckpoint]) -> None:
        """Adopt an existing checkpoint as the starting point (resume).

        Restores the full resume accounting: ``latest``, the interval
        cursor, *and* ``taken`` — a resumed run's snapshot count picks
        up where the interrupted run's left off instead of restarting
        at zero (which historically made ``PipelineResult.summary()``
        under-report resumed runs).
        """
        self.latest = checkpoint
        self._last_at = checkpoint.records_consumed if checkpoint else 0
        if checkpoint is not None:
            self.taken = max(self.taken, checkpoint.snapshots_taken)
