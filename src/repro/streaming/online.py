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
and installs the selected members' rows in one
:class:`~repro.prediction.runtime.WarningRuntime`, which applies them to
every later alert.  The fit scored its candidates by replaying that same
runtime over the validation span, so the warnings a member was selected
on and the warnings it emits live come from one copy of each rule.

Runtime state that must survive a refit (refractory clocks, per-source
DFT histories) is carried over whenever a category keeps the same
specialist kind.  Warnings are lead-time-stamped: ``valid_from`` /
``valid_until`` bound when the predicted failure is expected, mirroring
the scoring window of :func:`repro.prediction.base.evaluate`.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..prediction.base import Warning_, check_lead_window
from ..prediction.ensemble import DEFAULT_FACTORIES, PredictorEnsemble
from ..prediction.features import AlertHistory
from ..prediction.runtime import WarningRuntime
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
#: The row fields a refit that keeps a category's kind carries over.
LIVE_STATE = ("last_warn", "sources", "last_fired")
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

    def __post_init__(self) -> None:
        check_lead_window(self.lead_min, self.lead_max)

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
        self._runtime = WarningRuntime(BURST_WINDOW, self._emit)
        self.warnings: Deque[OnlineWarning] = deque(maxlen=MAX_WARNINGS)
        self.warnings_emitted = 0

    def advance(self, alerts: Sequence[SlimAlert]) -> None:
        """Process finalized alerts (ascending timestamps), segmented at
        refit boundaries."""
        if not isinstance(alerts, list):
            alerts = list(alerts)
        i, n = 0, len(alerts)
        while i < n:
            if self._processed >= self._next_refit:
                self._refit(alerts[i][0])
            until_refit = self._next_refit - self._processed
            stop = n if until_refit > n - i else i + until_refit
            chunk = alerts[i:stop] if (i, stop) != (0, n) else alerts
            self._runtime.advance(chunk)
            self._history.extend(chunk)
            self._processed += len(chunk)
            i = stop

    def _emit(self, member: Dict[str, Any], t: float, score: float) -> None:
        lead_min, lead_max = self.config.lead_min, self.config.lead_max
        self.warnings.append(OnlineWarning(
            t, member["target"], score, member["kind"], t + lead_min, t + lead_max
        ))
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
        """Install the chosen members' rows, carrying their live state
        over wherever a category keeps its specialist kind."""
        old = self._runtime.members
        members: Dict[str, Dict[str, Any]] = {}
        for target in sorted(ensemble.members):
            chosen = ensemble.members[target]
            row = chosen.predictor.member()
            prev = old.get(target)
            if prev is not None and prev["kind"] == row["kind"]:
                row.update((k, prev[k]) for k in LIVE_STATE if k in row)
            score = chosen.validation
            row.update(precision=score.precision, recall=score.recall, f1=score.f1)
            members[target] = row
        self._runtime.install(members)

    # -- reporting ----------------------------------------------------

    def member_rows(self) -> List[MemberRow]:
        return [
            MemberRow(m["target"], m["kind"], m["precision"], m["recall"], m["f1"])
            for m in self._runtime.members.values()
        ]

    # -- durability ---------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "params": self.config.key(),
            "processed": self._processed,
            "next_refit": self._next_refit,
            "refits": self.refits,
            "history": [tuple(a) for a in self._history],
            "burst_buf": self._runtime.trailing_times(),
            "members": copy.deepcopy(self._runtime.members),
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
        self._runtime = WarningRuntime(BURST_WINDOW, self._emit)
        self._runtime.prime(state["burst_buf"])
        self._runtime.install(copy.deepcopy(state["members"]))
        self.warnings = deque(
            (OnlineWarning(*row) for row in state["warnings"]), maxlen=MAX_WARNINGS
        )
        self.warnings_emitted = int(state["warnings_emitted"])
