"""The per-record semantics of the pipeline, expressed exactly once.

Before the engine existed, the semantic core of Section 3 — admission,
Table 2 volume statistics, expert-rule tagging, the severity cross-tab,
the Algorithm 3.1 offer, and every dead-letter branch — was hand-forked
into three loops inside ``pipeline.py`` (serial, sharded-parallel, and
bounded), and every behavioral PR had to patch all three.
:class:`AlertPath` is that core as one object.  Drivers
(:mod:`repro.engine.drivers`) decide *when* each step runs; the path
decides *what* the step does, so the serial, sharded, and bounded
schedules cannot drift apart semantically.

The path has exactly two shapes:

* the per-record reference — :meth:`admit`, then :meth:`process`
  (observe -> tag, severity included -> offer) — which every
  differential test compares against and a tenant worker's crash
  replay runs to find the record a failed batch died on;
* one batch kernel, :meth:`process_batch` (:meth:`process_tagged` for
  records queued with their verdicts), which every driver and tenant
  worker calls: a vectorised body for the batch nothing can go wrong
  in, and a replay through the per-record methods for any batch holding
  an invalid record or a tagger error, so dead letters keep stream order
  and a strict run raises at the record where the reference loop would.

The path also owns resumability: :meth:`snapshot` captures every piece
of mutable state plus ``consumed`` (records pulled from the input
stream), and constructing a path with ``resume_from=`` restores it, so
checkpoint/resume works identically under every driver.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Any, Dict, List, Optional, Sequence

from ..core.filtering import (
    DEFAULT_THRESHOLD,
    FilterReport,
    OutOfOrderError,
    SpatioTemporalFilter,
)
from ..core.categories import Alert
from ..core.rules import get_ruleset
from ..core.tagging import BatchOutcome, Tagger
from ..analysis.severity_eval import SeverityCrossTab
from ..logio.stats import StatsCollector
from ..logmodel.record import LogRecord, full_texts
from ..resilience.checkpoint import (
    PipelineCheckpoint,
    copy_report,
    copy_severity,
)
from ..resilience.deadletter import (
    DeadLetterQueue,
    REASON_INVALID_RECORD,
    REASON_OUT_OF_ORDER,
    REASON_TAGGER_ERROR,
)
from ..parallel.sharded import TaggerErrorReplay
from .result import PipelineResult
from .stages import AlertListSink, ObservingSink

#: How far back an alert timestamp may run (collector fan-in jitter,
#: syslog's one-second granularity) before it is quarantined rather than
#: filtered.  Matches the strict-monotonicity contract of Algorithm 3.1.
DEFAULT_REORDER_TOLERANCE = 1.0


def _valid_record(record: LogRecord) -> bool:
    """Structural admission check: can downstream stages process this?"""
    try:
        if not math.isfinite(record.timestamp):
            return False
    except TypeError:
        return False
    return isinstance(record.body, str) and isinstance(record.source, str)


class AlertPath:
    """validate -> observe stats -> tag -> severity -> filter ->
    report/dead-letter, as one stateful object shared by every driver.

    With ``dead_letters`` attached the path quarantines what it cannot
    process instead of raising; without a queue the historical strict
    behavior holds (admission admits everything, errors propagate).

    Pass ``resume_from`` (a :class:`PipelineCheckpoint`) to restore
    mid-stream state; the caller must also skip the consumed prefix of
    the re-presented stream (``islice(source, path.consumed, None)``).
    """

    def __init__(
        self,
        system: str,
        threshold: float = DEFAULT_THRESHOLD,
        dead_letters: Optional[DeadLetterQueue] = None,
        resume_from: Optional[PipelineCheckpoint] = None,
        tagger: Optional[Tagger] = None,
        prediction: Optional[object] = None,
        store_writer: Optional[object] = None,
    ):
        self.system = system
        self.threshold = threshold
        self.dead_letters = dead_letters
        self.tagger = tagger if tagger is not None else Tagger(get_ruleset(system))
        #: Optional prediction stage (duck-typed:
        #: :class:`repro.streaming.stage.PredictionStage`); when present
        #: the sink is wrapped so the stage observes every ruled-on
        #: alert, and its state rides the checkpoint wire.
        self.prediction = prediction
        #: Optional columnar store writer (duck-typed:
        #: :class:`repro.store.columnar.ColumnarStoreWriter`); when
        #: present the sink spills every ruled-on alert to disk instead
        #: of keeping Python lists, and the committed sequence watermark
        #: rides the checkpoint as ``store_state``.
        self.store_writer = store_writer

        if resume_from is not None:
            if resume_from.system != system:
                raise ValueError(
                    f"checkpoint is for {resume_from.system!r}, not {system!r}"
                )
            if resume_from.threshold != threshold:
                raise ValueError(
                    "checkpoint was taken with a different threshold"
                )
            self.stats_collector = resume_from.restore_stats()
            self.filter = resume_from.restore_filter()
            self.report = resume_from.restore_report()
            self.severity_tab = resume_from.restore_severity()
            self.corrupted = resume_from.corrupted_messages
            self.consumed = resume_from.records_consumed
            if dead_letters is not None:
                dead_letters.restore(resume_from.dead_letters)
            self.resumed_shed_state = resume_from.shed_state
            self.resumed_overload = resume_from.overload_state
            if (
                prediction is not None
                and resume_from.prediction_state is not None
            ):
                prediction.load_state_dict(resume_from.prediction_state)
        else:
            self.stats_collector = StatsCollector(system)
            self.filter = SpatioTemporalFilter(
                threshold, reorder_tolerance=DEFAULT_REORDER_TOLERANCE
            )
            self.report = FilterReport(threshold=threshold)
            self.severity_tab = SeverityCrossTab()
            self.corrupted = 0
            self.consumed = 0
            self.resumed_shed_state = None
            self.resumed_overload = None
        #: The run's alert log: the store, else the in-memory lists.
        if store_writer is not None:
            from ..store.sink import ColumnarSink

            self.log = ColumnarSink(self.report, store_writer)
        else:
            self.log = AlertListSink(self.report, [], [])
        self.log.begin(resume_from)
        self.sink = self.log
        if prediction is not None:
            self.sink = ObservingSink(self.sink, prediction.observe_batch)

    # -- admission ---------------------------------------------------------

    #: Structural validity, no side effects: drivers check a batch ahead
    #: of time; quarantine still happens in stream order via :meth:`admit`.
    valid = staticmethod(_valid_record)

    def admit(self, record: LogRecord) -> bool:
        """Count one input record; quarantine the structurally invalid
        before they can crash the renderer or the filter.  Returns
        ``True`` when the record proceeds.  Strict mode (no dead-letter
        queue) admits everything, as the pipeline always has."""
        self.consumed += 1
        if self.dead_letters is not None and not _valid_record(record):
            self.dead_letters.put(record, REASON_INVALID_RECORD)
            return False
        return True

    # -- the per-record stages --------------------------------------------

    def observe(self, record: LogRecord) -> None:
        """Table 2 volume statistics plus the corruption count."""
        self.stats_collector.observe_record(record)
        if record.corrupted:
            self.corrupted += 1

    def tag(self, record: LogRecord) -> Optional[Alert]:
        """Tag in-process and record the severity cross-tab.  A record
        that crashes the rules engine is quarantined (or raises in
        strict mode) and skips the severity tab, exactly as the serial
        loop always did."""
        try:
            alert = self.tagger.tag(record)
        except Exception as exc:
            if self.dead_letters is None:
                raise
            self.dead_letters.put(record, REASON_TAGGER_ERROR, repr(exc))
            return None
        self.severity_tab.add(record, alert is not None)
        return alert

    def offer(self, alert: Alert) -> None:
        """One Algorithm 3.1 offer: filter, report, collect — or
        quarantine an alert whose timestamp runs backwards beyond the
        reorder tolerance."""
        self._offer_all((alert,))

    def _offer_all(self, alerts: Sequence[Alert]) -> None:
        offer = self.filter.offer
        pairs = []
        for alert in alerts:
            try:
                kept = offer(alert)
            except OutOfOrderError as exc:
                if self.dead_letters is None:
                    raise
                self.dead_letters.put(
                    alert.record, REASON_OUT_OF_ORDER, str(exc)
                )
                continue
            pairs.append((alert, kept))
        if pairs:
            self.sink.emit_batch(pairs)

    def process(self, record: LogRecord) -> None:
        """The whole post-admission per-record step (the serial shape)."""
        self.observe(record)
        alert = self.tag(record)
        if alert is not None:
            self.offer(alert)

    # -- the batch kernel --------------------------------------------------

    def process_batch(
        self,
        records: Sequence[LogRecord],
        outcome: Optional[BatchOutcome] = None,
        admitted: bool = False,
    ) -> List[Alert]:
        """Admit and process a whole batch; returns the tagged alerts.

        Semantically this is the :meth:`admit`/:meth:`process` loop, and
        for a batch that holds an invalid record (quarantine mode) or a
        record the rules engine cannot match it *is* that loop
        (:meth:`_replay_batch`): nothing has been observed when either
        is detected, so dead letters interleave in stream order and a
        strict run raises at the poison record with exactly the prefix
        processed.  Every other batch takes the vectorised body — one
        ruleset pass, one stats observation, one severity tally, one
        in-order run of filter offers — because per-record call overhead
        (the tagger call, line join and encode, severity bookkeeping)
        dominates the hot path.  Deflate is not among it: the stats
        collector compresses in blocks of at least 64 KiB, beside the
        caller where a second CPU is free
        (:class:`~repro.logio.stats.StatsCollector`).  The two are
        byte-identical, which
        ``tests/engine/test_batch_flow.py`` pins for any partition.

        ``outcome`` is the tag outcome already computed (by a worker
        pool, or by the bounded driver at arrival) over the records that
        pass :meth:`valid` (strict mode: over all of them); without one
        the batch is matched in process.  ``admitted`` says the caller
        already ran :meth:`admit` on every record (the bounded driver).
        """
        if not records:
            return []
        if (
            not admitted
            and self.dead_letters is not None
            and not all(map(_valid_record, records))
        ):
            return self._replay_batch(records, outcome, admitted)
        return self._process_valid(records, outcome, admitted)

    def _process_valid(self, records, outcome, admitted) -> List[Alert]:
        """:meth:`process_batch` past its admission check: every record
        is valid (or the run is strict)."""
        if outcome is None:
            try:
                matches = self.tagger.match_texts(full_texts(records))
            except Exception:
                return self._replay_batch(records, outcome, admitted)
            from_record = Alert.from_record
            hits = [(i, from_record(records[i], cat)) for i, cat in matches]
        elif outcome.errors:
            return self._replay_batch(records, outcome, admitted)
        else:
            hits = outcome.hits
        if not admitted:
            self.consumed += len(records)
        self.stats_collector.observe_batch(records)
        self.corrupted += sum(1 for r in records if r.corrupted)
        self.severity_tab.add_batch(records, [i for i, _ in hits])
        alerts = [alert for _, alert in hits]
        if alerts:
            self._offer_all(alerts)
        return alerts

    def process_tagged(self, pairs, admitted: bool = True) -> List[Alert]:
        """Serve ``(record, verdict)`` pairs tagged at the door (verdict:
        the alert, ``None``, or the tagger error's ``repr``) as a finished
        outcome.  For a caller that has not admitted them (a tenant
        worker: invalid-record letters belong in drain order) the verdicts
        of invalid records are dropped, as the kernel's indexing wants.
        Each record is checked once, here; the kernel is not asked
        again."""
        if not pairs:
            return []
        records = [record for record, _ in pairs]
        replay = False
        if not admitted and self.dead_letters is not None:
            valid = list(map(_valid_record, records))
            replay = not all(valid)
            if replay:
                pairs = list(compress(pairs, valid))
        marks = [(i, v) for i, (_, v) in enumerate(pairs) if v is not None]
        hits = tuple(m for m in marks if not isinstance(m[1], str))
        errors = tuple(m for m in marks if isinstance(m[1], str))
        outcome = BatchOutcome(len(pairs), hits, errors)
        if replay:
            return self._replay_batch(records, outcome, admitted)
        return self._process_valid(records, outcome, admitted)

    def _replay_batch(self, records, outcome, admitted) -> List[Alert]:
        """The batch as the per-record reference loop, with a worker
        ``outcome`` (indexed over the admitted records) standing in for
        :meth:`tag`.  A worker-side error arrives as its ``repr`` — the
        exception object cannot cross the process boundary — so strict
        mode re-raises it as :class:`TaggerErrorReplay`."""
        hits = dict(outcome.hits) if outcome is not None else {}
        errors = dict(outcome.errors) if outcome is not None else {}
        alerts: List[Alert] = []
        shipped = 0
        for record in records:
            if not admitted and not self.admit(record):
                continue
            self.observe(record)
            if outcome is None:
                alert = self.tag(record)
            else:
                error = errors.get(shipped)
                alert = hits.get(shipped)
                shipped += 1
                if error is not None:
                    if self.dead_letters is None:
                        raise TaggerErrorReplay(error)
                    self.dead_letters.put(record, REASON_TAGGER_ERROR, error)
                    continue
                self.severity_tab.add(record, alert is not None)
            if alert is not None:
                alerts.append(alert)
                self.offer(alert)
        return alerts

    # -- resumability ------------------------------------------------------

    def snapshot(
        self,
        shed_state: Optional[Dict[str, float]] = None,
        overload_state: Optional[Dict[str, Any]] = None,
    ) -> PipelineCheckpoint:
        """Complete resumable state at the current record boundary.
        Drivers must only call this when every consumed record is fully
        accounted for (processed, quarantined, or shed) — the serial
        driver trivially always is; batch/queue drivers call it at their
        barriers.

        The checkpoint holds no alerts: it commits the run's alert log
        and carries the log's watermark, plus the in-memory lists by
        reference.  A store commits here, so its watermark never lands
        inside a page and resume truncation is page-granular."""
        return PipelineCheckpoint(
            system=self.system,
            threshold=self.threshold,
            records_consumed=self.consumed,
            stats=self.stats_collector.snapshot(),
            filter_state=self.filter.state_dict(),
            report=copy_report(self.report),
            severity=copy_severity(self.severity_tab),
            corrupted_messages=self.corrupted,
            dead_letters=(
                self.dead_letters.snapshot() if self.dead_letters else None
            ),
            shed_state=shed_state,
            overload_state=overload_state,
            prediction_state=(
                self.prediction.state_dict()
                if self.prediction is not None
                else None
            ),
            store_state=self.log.commit(),
            alert_log=self.log.lists,
        )

    # -- finishing ---------------------------------------------------------

    def result(self, **extras) -> PipelineResult:
        """Finish the stats and assemble the :class:`PipelineResult`;
        ``extras`` carry driver-specific fields (``shard_stats``,
        ``overload``, ``generated``, ``checkpoints``)."""
        if self.prediction is not None and "prediction" not in extras:
            self.prediction.finish()
            extras["prediction"] = self.prediction.report()
        if self.store_writer is not None:
            self.store_writer.commit()
            extras.setdefault("store", self.store_writer.reader())
        return PipelineResult(
            system=self.system,
            stats=self.stats_collector.finish(),
            raw_alerts=self.log.raw_alerts,
            filtered_alerts=self.log.filtered_alerts,
            filter_report=self.report,
            severity_tab=self.severity_tab,
            corrupted_messages=self.corrupted,
            threshold=self.threshold,
            dead_letters=self.dead_letters,
            **extras,
        )
