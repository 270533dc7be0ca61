"""Predictor interface and event-based evaluation.

A predictor watches the alert stream and emits *warnings*: "a failure of
category C is imminent."  Evaluation follows the critical-event-prediction
literature the paper cites (Sahoo et al., Liang et al.): a failure counts
as *predicted* if a warning preceded it within the lead window
[lead_min, lead_max]; a warning counts as *correct* if a failure follows
it within the same window.  Precision limits operator fatigue, recall
limits surprise — the paper notes "limiting false positives to an
operationally-acceptable rate tends to be the critical factor"
(Section 3.3.2).
"""

from __future__ import annotations

import abc
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from .features import AlertHistory


@dataclass(frozen=True)
class Warning_:
    """One emitted prediction (trailing underscore: ``Warning`` is a
    Python built-in exception)."""

    t: float
    category: str
    score: float


class Predictor(abc.ABC):
    """Base predictor: train on one span of history, warn over another.

    Its warning rule runs in :mod:`repro.prediction.runtime`, as the row
    :meth:`member` builds — unless :meth:`warnings` is overridden."""

    #: The failure category this instance predicts.
    target: str
    #: Seconds a warning silences the next one.
    refractory: float

    @abc.abstractmethod
    def train(self, history: AlertHistory, t0: float, t1: float) -> None:
        """Fit on failures/alerts within [t0, t1)."""

    def member(self) -> Dict[str, Any]:
        """A fresh runtime row carrying the trained rule."""
        raise NotImplementedError(type(self).__name__ + " builds no runtime row")

    def _row(self, kind: str, **rule: Any) -> Dict[str, Any]:
        return {"target": self.target, "kind": kind, "last_warn": None,
                "refractory": self.refractory, **rule}

    def warnings(
        self, history: AlertHistory, t0: float, t1: float
    ) -> List[Warning_]:
        """Emit warnings for the evaluation span [t0, t1): the runtime
        replayed over the span with this predictor's row alone."""
        from .runtime import replay

        return replay([self], history, t0, t1)[0]


@dataclass(frozen=True)
class PredictionScore:
    """Event-based evaluation outcome for one predictor on one span."""

    target: str
    failures: int
    predicted_failures: int
    warnings: int
    correct_warnings: int

    @property
    def recall(self) -> float:
        return self.predicted_failures / self.failures if self.failures else 0.0

    @property
    def precision(self) -> float:
        return self.correct_warnings / self.warnings if self.warnings else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0


def check_lead_window(lead_min: float, lead_max: float) -> None:
    """Reject a lead window no warning could be scored in."""
    if lead_min < 0 or lead_max <= lead_min:
        raise ValueError("need 0 <= lead_min < lead_max")


def evaluate(
    warnings: Sequence[Warning_],
    failure_times: Sequence[float],
    target: str,
    lead_min: float = 10.0,
    lead_max: float = 3600.0,
) -> PredictionScore:
    """Score warnings against ground-truth failure times.

    ``lead_min`` excludes warnings too late to act on; ``lead_max`` bounds
    how early a warning may claim credit.
    """
    check_lead_window(lead_min, lead_max)
    fail_times = sorted(failure_times)
    warn_times = sorted(w.t for w in warnings if w.category == target)

    predicted = 0
    for ft in fail_times:
        lo = bisect_left(warn_times, ft - lead_max)
        hi = bisect_right(warn_times, ft - lead_min)
        if hi > lo:
            predicted += 1

    correct = 0
    for wt in warn_times:
        lo = bisect_left(fail_times, wt + lead_min)
        hi = bisect_right(fail_times, wt + lead_max)
        if hi > lo:
            correct += 1

    return PredictionScore(
        target=target,
        failures=len(fail_times),
        predicted_failures=predicted,
        warnings=len(warn_times),
        correct_warnings=correct,
    )
