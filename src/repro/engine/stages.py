"""Stage protocols: the composition contract of the engine.

The paper's pipeline (Section 3) is a linear chain — collect -> tag ->
filter -> characterize — and every execution strategy (serial, sharded,
bounded) runs the *same* chain under a different schedule.  These
protocols pin the seams on either side of the one stage,
:class:`~repro.engine.path.AlertPath` (it *is* the per-record
semantics):

* a :class:`Source` produces log records (a generator, a file reader, a
  bounded ingest buffer — anything iterable);
* a :class:`Sink` receives every alert the filter ruled on, with the
  verdict (:class:`AlertListSink` keeps the raw/filtered lists and the
  Table 4 report that :class:`~repro.engine.result.PipelineResult`
  carries).

Drivers (:mod:`repro.engine.drivers`) are deliberately *not* a protocol
method on stages: a driver owns the schedule (when each record moves),
the stages own the semantics (what happens to it).  That split is what
makes parallelism, backpressure, and checkpointing orthogonal wrappers
instead of forked loops.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..core.categories import Alert
from ..core.filtering import FilterReport
from ..logmodel.record import LogRecord


@runtime_checkable
class Source(Protocol):
    """Anything that yields log records in timestamp order."""

    def __iter__(self) -> Iterator[LogRecord]: ...


#: A replayable source: calling it re-presents the *same* deterministic
#: stream from the beginning.  Checkpoint/resume and supervision need
#: replayability — a resumed run skips the consumed prefix of a fresh
#: presentation — and a plain iterator cannot promise that.
SourceFactory = Callable[[], Iterable[LogRecord]]


@runtime_checkable
class Sink(Protocol):
    """Receives every alert the filter ruled on, with the verdict, as
    ``(alert, kept)`` pairs in offer order.  The per-record path emits
    one-pair batches, so a sink has one method and one behaviour."""

    def emit_batch(self, pairs: Sequence[Tuple[Alert, bool]]) -> None: ...


class AlertListSink:
    """The default sink and in-memory alert log: raw/filtered alert
    lists plus the Table 4 report.

    The lists only ever grow, so a checkpoint holds them by reference
    (:attr:`lists`) plus their two lengths (:meth:`commit`), and a
    resume copies those prefixes once (:meth:`begin`).
    """

    def __init__(
        self,
        report: FilterReport,
        raw_alerts: List[Alert],
        filtered_alerts: List[Alert],
    ):
        self.report = report
        self.raw_alerts = raw_alerts
        self.filtered_alerts = filtered_alerts

    @property
    def lists(self) -> Tuple[List[Alert], List[Alert]]:
        return self.raw_alerts, self.filtered_alerts

    def begin(self, checkpoint) -> None:
        """Resume at ``checkpoint``'s watermark: the prefixes of the
        lists it holds (none, or a tenant's: empty)."""
        if checkpoint is None:
            return
        seq, kept = checkpoint.watermark(store=False)
        if checkpoint.alert_log is not None:
            raw, filtered = checkpoint.alert_log
            self.raw_alerts, self.filtered_alerts = raw[:seq], filtered[:kept]
        elif seq:
            raise ValueError(
                "checkpoint holds a watermark, not its alerts: resume it "
                "with the state_dir it was saved to"
            )

    def commit(self) -> Dict[str, int]:
        """The watermark: both lists' lengths."""
        return {"seq": len(self.raw_alerts), "kept": len(self.filtered_alerts)}

    def emit_batch(self, pairs: Sequence[Tuple[Alert, bool]]) -> None:
        raw_append = self.raw_alerts.append
        kept_append = self.filtered_alerts.append
        record = self.report.record
        for alert, kept in pairs:
            raw_append(alert)
            record(alert, kept)
            if kept:
                kept_append(alert)


class ObservingSink:
    """Tees the ruled-on alert flow into a side observer.

    Wraps any sink and forwards every ``emit_batch`` to it unchanged,
    then hands the same pairs to ``observe`` — a bound callable such as
    the prediction stage's ``observe_batch`` or a store writer's
    ``append_batch``.  The wrapped sink's alert lists and report stay
    the authoritative state, so code that reads ``path.sink.raw_alerts``
    or replaces ``path.sink`` with a service sink keeps working: the
    wrapper delegates those attributes to the inner sink.
    """

    def __init__(
        self,
        inner: Sink,
        observe: Callable[[Sequence[Tuple[Alert, bool]]], None],
    ):
        self.inner = inner
        self.observe = observe

    @property
    def report(self) -> FilterReport:
        return self.inner.report  # type: ignore[attr-defined]

    @property
    def raw_alerts(self) -> List[Alert]:
        return self.inner.raw_alerts  # type: ignore[attr-defined]

    @property
    def filtered_alerts(self) -> List[Alert]:
        return self.inner.filtered_alerts  # type: ignore[attr-defined]

    def emit_batch(self, pairs: Sequence[Tuple[Alert, bool]]) -> None:
        self.inner.emit_batch(pairs)
        self.observe(pairs)
