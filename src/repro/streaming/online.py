"""Online predictor ensemble over the live alert stream.

The offline :class:`~repro.prediction.ensemble.PredictorEnsemble` trains
on one span and warns over another, both known up front.  Online, the
stream is unbounded, so the ensemble is *refit on a doubling schedule*:
after :data:`FIRST_REFIT` finalized alerts, then at 2x, 4x, 8x, ... that
count.  Count-based (rather than wall-clock) scheduling makes the refit
points a deterministic function of the alert sequence — independent of
batch sizes, drivers, and stream density — which is what lets the golden
suite demand byte-identical warning streams from serial and sharded
runs, and keeps the number of fits logarithmic in stream length.

Each refit runs the offline ensemble on the retained history (a training
span and a validation span split :data:`VALIDATION_FRACTION` from the end)
and *translates* the selected members into cheap per-alert runtimes:

* ``burst``   — trailing-window count against the trained threshold;
* ``severity``— high-severity label match;
* ``precursor``— learned precursor-category trigger;
* ``dft``     — per-source dispersion-frame rules
  (:func:`repro.prediction.dft._rules_fire` on the last six arrivals).

Runtime state that must survive a refit (refractory clocks, per-source
DFT histories) is carried over whenever a category keeps the same
specialist kind.  Warnings are lead-time-stamped: ``valid_from`` /
``valid_until`` bound when the predicted failure is expected, mirroring
the scoring window of :func:`repro.prediction.base.evaluate`.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..prediction.base import Warning_
from ..prediction.dft import _rules_fire
from ..prediction.ensemble import DEFAULT_FACTORIES, PredictorEnsemble
from ..prediction.features import AlertHistory
from .miner import StreamingCorrelationMiner

#: The refit schedule: first after this many finalized alerts, then
#: each time the count has grown by ``REFIT_GROWTH``.
FIRST_REFIT = 512
REFIT_GROWTH = 2.0
#: Refit cost is O(refits x fit window); 4096 recent alerts hold
#: several validation failures for every calibrated scenario while
#: keeping the doubling-schedule refits cheap on dense streams.
FIT_MAX_ALERTS = 4096
#: The trailing share of the fit window each refit validates on.
VALIDATION_FRACTION = 1.0 / 3.0
#: The burst runtime's trailing window: the one the ensemble's burst
#: candidates are trained with.
BURST_WINDOW = DEFAULT_FACTORIES["burst"]("").window
#: Emitted warnings retained for the report (the full count is still
#: reported).
MAX_WARNINGS = 20000


class SlimAlert(NamedTuple):
    """The prediction-relevant projection of an engine alert.

    Structurally compatible with what :class:`AlertHistory` and the
    offline predictors read (``timestamp``/``category``/``source`` plus
    ``record.severity`` — ``record`` returns ``self``), while staying a
    tiny picklable tuple for checkpoint state and refit history.

    The hot path trades the named view away: the stage and the
    ensemble's per-alert loops carry plain ``(timestamp, category,
    source, severity)`` tuples (namedtuple construction is a python-
    level call per alert) and wrap them as :class:`SlimAlert` only at
    refit time, when the offline predictors need attribute access.
    Plain tuples and ``SlimAlert`` compare equal field-for-field, so
    either form may be fed to :meth:`OnlineEnsemble.advance`.
    """

    timestamp: float
    category: str
    source: str
    severity: Optional[str]

    @property
    def record(self) -> "SlimAlert":
        return self


@dataclass(frozen=True)
class OnlineWarning(Warning_):
    """A :class:`Warning_` with provenance and its actionable window."""

    kind: str = ""
    valid_from: float = 0.0
    valid_until: float = 0.0


@dataclass(frozen=True)
class PredictionConfig:
    """The actionable lead window of online warnings: a warning at ``t``
    predicts a failure in ``[t + lead_min, t + lead_max]``, the window
    refits score candidates on."""

    lead_min: float = 10.0
    lead_max: float = 3600.0

    def key(self) -> Tuple[Any, ...]:
        """Fingerprint of the effective settings, constants included, in
        the order state has always been recorded under: state written
        when all eighteen were fields still resumes, and changing any
        constant refuses it."""
        return (
            *StreamingCorrelationMiner().params,
            tuple(DEFAULT_FACTORIES),
            FIRST_REFIT,
            REFIT_GROWTH,
            FIT_MAX_ALERTS,
            VALIDATION_FRACTION,
            PredictorEnsemble.min_f1,
            PredictorEnsemble.min_precision,
            PredictorEnsemble.min_failures,
            self.lead_min,
            self.lead_max,
            BURST_WINDOW,
            MAX_WARNINGS,
        )


@dataclass
class MemberRow:
    """Reporting row for one installed specialist."""

    target: str
    kind: str
    precision: float
    recall: float
    f1: float


class OnlineEnsemble:
    """Per-category specialists refit on a doubling schedule.

    Feed time-ordered finalized alerts through :meth:`advance`; read
    emitted warnings from :attr:`warnings`.
    """

    def __init__(self, config: Optional[PredictionConfig] = None) -> None:
        self.config = config or PredictionConfig()
        self._history: Deque[SlimAlert] = deque(maxlen=FIT_MAX_ALERTS)
        self._processed = 0
        self._next_refit = FIRST_REFIT
        self.refits = 0
        self.members: Dict[str, Dict[str, Any]] = {}
        self.warnings: Deque[OnlineWarning] = deque(maxlen=MAX_WARNINGS)
        self.warnings_emitted = 0
        # trailing-window buffer for burst counting: ascending times with
        # a consumed-prefix pointer (compacted periodically)
        self._burst_buf: List[float] = []
        self._burst_start = 0
        # derived runtime indexes (rebuilt by _reindex)
        self._burst_members: List[Dict[str, Any]] = []
        self._min_burst_threshold = math.inf
        self._sev_members: List[Dict[str, Any]] = []
        self._precursor_trigger: Dict[str, List[Tuple[Dict[str, Any], float]]] = {}
        self._dft_members: Dict[str, Dict[str, Any]] = {}

    # -- the per-alert hot path --------------------------------------

    def advance(self, alerts: Sequence[SlimAlert]) -> None:
        """Process finalized alerts (ascending timestamps).

        Segmented at refit boundaries.  A span runs the per-alert burst
        loop only while a burst-rate member is installed; otherwise it
        bulk-appends and gates just the alerts some member watches, which
        keeps the no-signature case — most streams, and the throughput
        benchmark — nearly free without changing a single emission: the
        burst loop recomputes its window pointer from any lower bound,
        so bulk and per-alert processing are equivalent.
        """
        if not isinstance(alerts, list):
            alerts = list(alerts)
        i, n = 0, len(alerts)
        while i < n:
            if self._processed >= self._next_refit:
                self._refit(alerts[i][0])
            until_refit = self._next_refit - self._processed
            stop = n if until_refit > n - i else i + until_refit
            chunk = alerts[i:stop] if (i, stop) != (0, n) else alerts
            if self._burst_members:
                self._advance_slow(chunk)
            else:
                self._advance_no_burst(chunk)
            i = stop

    def _advance_slow(self, alerts: Sequence[SlimAlert]) -> None:
        """Per-alert loop while a burst-rate member is installed: the
        burst members on each alert's trailing-window count, then
        :meth:`_gate`."""
        buf = self._burst_buf
        burst_members = self._burst_members
        min_burst = self._min_burst_threshold
        gated = self._sev_members or self._precursor_trigger or self._dft_members
        gate = self._gate
        buf_append = buf.append
        history_append = self._history.append
        for alert in alerts:
            t = alert[0]
            # Trailing-window alert count over (t - window, ..., t);
            # equals AlertHistory.count_between(t - window, t) plus
            # this alert once appended — the burst runtime matches
            # the offline predictor's "count at arrival" convention.
            start = self._burst_start
            lo = t - BURST_WINDOW
            while start < len(buf) and buf[start] < lo:
                start += 1
            self._burst_start = start
            count = bisect_left(buf, t, start) - start
            if count >= min_burst:
                for member in burst_members:
                    if count >= member["threshold"]:
                        self._try_emit(member, t, float(count))
            if start > 8192:
                del buf[:start]
                self._burst_start = 0
            if gated:
                gate(alert)
            buf_append(t)
            history_append(alert)
        self._processed += len(alerts)

    def _advance_no_burst(self, alerts: Sequence[SlimAlert]) -> None:
        """No burst-rate member installed: no per-alert trailing-window
        upkeep is needed, so the stream bulk-appends and :meth:`_gate`
        runs only over the alerts that could trigger a member (a
        severity label or a watched category).  No gated kind reads the
        burst buffer or the history, so skipping the others emits
        exactly what the per-alert loop would, in the same stream
        order."""
        buf = self._burst_buf
        buf.extend(a[0] for a in alerts)
        self._history.extend(alerts)
        self._processed += len(alerts)
        hot = set(self._precursor_trigger)
        hot.update(self._dft_members)
        if self._sev_members:
            sel: Sequence[SlimAlert] = [
                a for a in alerts if a[3] is not None or a[1] in hot
            ]
        elif hot:
            sel = [a for a in alerts if a[1] in hot]
        else:
            sel = ()
        for alert in sel:
            self._gate(alert)
        # Keep the trailing-window pointer and compaction current so a
        # later burst member starts from a tight, bounded buffer.
        start = bisect_left(buf, buf[-1] - BURST_WINDOW, self._burst_start)
        self._burst_start = start
        if start > 8192:
            del buf[:start]
            self._burst_start = 0

    def _gate(self, alert: Sequence[Any]) -> None:
        """The severity, precursor and DFT members, in that order, on
        one alert."""
        t = alert[0]
        if alert[3] is not None:
            for member in self._sev_members:
                if alert[3] in member["labels"]:
                    self._try_emit(member, t, 1.0)
        triggers = self._precursor_trigger.get(alert[1])
        if triggers is not None:
            for member, lift in triggers:
                self._try_emit(member, t, lift)
        dft = self._dft_members.get(alert[1])
        if dft is not None:
            times = dft["sources"].get(alert[2])
            if times is None:
                times = dft["sources"][alert[2]] = []
            times.append(t)
            if len(times) > 6:
                del times[0]
            if len(times) >= dft["min_history"]:
                fired = dft["last_fired"].get(alert[2])
                if fired is None or t - fired >= dft["refractory"]:
                    if _rules_fire(times) is not None:
                        dft["last_fired"][alert[2]] = t
                        self._emit(dft, t, 1.0)

    def _try_emit(self, member: Dict[str, Any], t: float, score: float) -> None:
        last = member["last_warn"]
        if last is None or t - last >= member["refractory"]:
            self._emit(member, t, score)

    def _emit(self, member: Dict[str, Any], t: float, score: float) -> None:
        member["last_warn"] = t
        cfg = self.config
        self.warnings.append(
            OnlineWarning(
                t=t,
                category=member["target"],
                score=score,
                kind=member["kind"],
                valid_from=t + cfg.lead_min,
                valid_until=t + cfg.lead_max,
            )
        )
        self.warnings_emitted += 1

    # -- refitting ----------------------------------------------------

    def _refit(self, now: float) -> None:
        self._next_refit = max(
            int(math.ceil(self._processed * REFIT_GROWTH)),
            self._processed + 1,
        )
        # Wrap the plain-tuple history rows for the offline
        # predictors, which read named attributes.
        alerts = [SlimAlert(*a) for a in self._history]
        ensemble = PredictorEnsemble(
            lead_min=self.config.lead_min, lead_max=self.config.lead_max
        )
        if len(alerts) < 2 * ensemble.min_failures:
            return
        t0 = alerts[0].timestamp
        span = now - t0
        if span <= 0:
            return
        cut = now - span * VALIDATION_FRACTION
        if cut <= t0:
            return
        ensemble.fit(AlertHistory(alerts), (t0, cut), (cut, now))
        self.refits += 1
        self._install(ensemble)

    def _install(self, ensemble: PredictorEnsemble) -> None:
        old = self.members
        members: Dict[str, Dict[str, Any]] = {}
        for target in sorted(ensemble.members):
            chosen = ensemble.members[target]
            prev = old.get(target)
            carry = prev if prev is not None and prev["kind"] == chosen.kind else None
            row: Dict[str, Any] = {
                "target": target,
                "kind": chosen.kind,
                "precision": chosen.validation.precision,
                "recall": chosen.validation.recall,
                "f1": chosen.validation.f1,
                "last_warn": carry["last_warn"] if carry else None,
            }
            predictor = chosen.predictor
            if chosen.kind == "burst":
                row["threshold"] = max(
                    3.0, predictor._expected_per_window * predictor.sigma
                )
                row["refractory"] = predictor.refractory
            elif chosen.kind == "severity":
                row["labels"] = sorted(predictor.alert_labels)
                row["refractory"] = predictor.refractory
            elif chosen.kind == "precursor":
                row["precursors"] = dict(predictor.precursors)
                row["refractory"] = predictor.refractory
            elif chosen.kind == "dft":
                row["refractory"] = predictor.refractory
                row["min_history"] = 2
                row["sources"] = carry["sources"] if carry else {}
                row["last_fired"] = carry["last_fired"] if carry else {}
            members[target] = row
        self.members = members
        self._reindex()

    def _reindex(self) -> None:
        self._burst_members = []
        self._sev_members = []
        self._precursor_trigger = {}
        self._dft_members = {}
        for target in sorted(self.members):
            member = self.members[target]
            kind = member["kind"]
            if kind == "burst":
                self._burst_members.append(member)
            elif kind == "severity":
                self._sev_members.append(member)
            elif kind == "precursor":
                for category, lift in sorted(member["precursors"].items()):
                    self._precursor_trigger.setdefault(category, []).append(
                        (member, lift)
                    )
            elif kind == "dft":
                self._dft_members[target] = member
        self._min_burst_threshold = min(
            (m["threshold"] for m in self._burst_members), default=math.inf
        )

    # -- reporting ----------------------------------------------------

    def member_rows(self) -> List[MemberRow]:
        return [
            MemberRow(
                target=m["target"],
                kind=m["kind"],
                precision=m["precision"],
                recall=m["recall"],
                f1=m["f1"],
            )
            for m in self.members.values()
        ]

    # -- durability ---------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "params": self.config.key(),
            "processed": self._processed,
            "next_refit": self._next_refit,
            "refits": self.refits,
            "history": [tuple(a) for a in self._history],
            "burst_buf": list(self._burst_buf[self._burst_start :]),
            "members": copy.deepcopy(self.members),
            "warnings": [
                (w.t, w.category, w.score, w.kind, w.valid_from, w.valid_until)
                for w in self.warnings
            ],
            "warnings_emitted": self.warnings_emitted,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        params = tuple(state["params"])
        if params != self.config.key():
            raise ValueError(
                "prediction configuration mismatch: checkpoint %r vs current %r"
                % (params, self.config.key())
            )
        self._processed = int(state["processed"])
        self._next_refit = int(state["next_refit"])
        self.refits = int(state["refits"])
        self._history = deque(
            (tuple(row) for row in state["history"]), maxlen=FIT_MAX_ALERTS
        )
        self._burst_buf = list(state["burst_buf"])
        self._burst_start = 0
        self.members = copy.deepcopy(state["members"])
        self.warnings = deque(
            (
                OnlineWarning(
                    t=row[0],
                    category=row[1],
                    score=row[2],
                    kind=row[3],
                    valid_from=row[4],
                    valid_until=row[5],
                )
                for row in state["warnings"]
            ),
            maxlen=MAX_WARNINGS,
        )
        self.warnings_emitted = int(state["warnings_emitted"])
        self._reindex()
