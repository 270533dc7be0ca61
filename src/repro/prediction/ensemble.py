"""The per-category predictor ensemble (the paper's Section 5 proposal).

"Event prediction efforts should produce an ensemble of predictors, each
specializing in one or more categories" (Section 1); "predictors should
specialize in sets of failures with similar predictive behaviors"
(Section 5).  The ensemble trains every candidate predictor per target
category on a training span, scores each on a validation span, and routes
each category to its best candidate — falling back to silence for
categories nothing predicts well (a predictor that cries wolf is worse
than none).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .base import PredictionScore, Predictor, Warning_, evaluate
from .dft import DftPredictor
from .features import AlertHistory
from .predictors import BurstPredictor, PrecursorPredictor, SeverityPredictor
from .runtime import replay

#: A factory building a fresh predictor for a target category.
PredictorFactory = Callable[[str], Predictor]

DEFAULT_FACTORIES: Dict[str, PredictorFactory] = {
    "burst": lambda target: BurstPredictor(target),
    "severity": lambda target: SeverityPredictor(target),
    "precursor": lambda target: PrecursorPredictor(target),
    "dft": lambda target: DftPredictor(target),
}


@dataclass
class EnsembleMember:
    """The chosen specialist for one category."""

    category: str
    kind: str
    predictor: Predictor
    validation: PredictionScore


@dataclass
class PredictorEnsemble:
    """Trains and routes per-category specialists.

    Parameters
    ----------
    factories:
        Candidate predictor families by name (default: burst, severity,
        precursor, dft).
    min_f1:
        Validation F1 below which a category gets *no* predictor — the
    "some failure types have no predictive signature" case (Section 1:
        "different categories of failures have different predictive
        signatures (if any)").
    min_precision:
        Validation precision below which a *warning-emitting* candidate
        is disqualified outright, regardless of F1 — the cries-wolf
        guard: "limiting false positives to an operationally-acceptable
        rate tends to be the critical factor" (Section 3.3.2).  A
        candidate that never warned is not crying wolf and is judged on
        F1 alone (which is then 0).
    lead_min / lead_max:
        The actionable lead window used for scoring.

    Selection is deterministic: candidates are tried in sorted-name
    order and only a strictly better F1 displaces the incumbent, so
    equal scores resolve to the alphabetically first kind on every run.
    """

    factories: Dict[str, PredictorFactory] = field(
        default_factory=lambda: dict(DEFAULT_FACTORIES)
    )
    min_f1: float = 0.2
    min_precision: float = 0.25
    min_failures: int = 4
    lead_min: float = 10.0
    lead_max: float = 3600.0
    members: Dict[str, EnsembleMember] = field(default_factory=dict)

    def fit(
        self,
        history: AlertHistory,
        train_span: "tuple[float, float]",
        validation_span: "tuple[float, float]",
        categories: Optional[Sequence[str]] = None,
    ) -> "PredictorEnsemble":
        """Select the best candidate per category on validation F1, all
        candidates scored from one replay of the warning runtime."""
        v0, v1 = validation_span
        failures: Dict[str, List[float]] = {}
        candidates: List[Tuple[str, str, Predictor]] = []
        for target in list(categories) if categories else history.categories:
            v_failures = [t for t in history.category_times(target) if v0 <= t < v1]
            if len(v_failures) < self.min_failures:
                continue
            failures[target] = v_failures
            for kind in sorted(self.factories):
                predictor = self.factories[kind](target)
                predictor.train(history, *train_span)
                candidates.append((target, kind, predictor))
        warned = replay([c[2] for c in candidates], history, v0, v1)
        best: Dict[str, EnsembleMember] = {}
        for (target, kind, predictor), warnings in zip(candidates, warned):
            score = self._evaluate(warnings, failures[target], target)
            if score.warnings and score.precision < self.min_precision:
                continue  # cries wolf on validation: never selectable
            if target not in best or score.f1 > best[target].validation.f1:
                best[target] = EnsembleMember(target, kind, predictor, score)
        self.members = {
            target: best[target]
            for target in failures
            if target in best and best[target].validation.f1 >= self.min_f1
        }
        return self

    def _evaluate(self, warnings, failures, target) -> PredictionScore:
        return evaluate(warnings, failures, target,
                        lead_min=self.lead_min, lead_max=self.lead_max)

    def _replay(
        self, history: AlertHistory, t0: float, t1: float
    ) -> List[List[Warning_]]:
        members = [m.predictor for m in self.members.values()]
        return replay(members, history, t0, t1)

    def warnings(
        self, history: AlertHistory, t0: float, t1: float
    ) -> List[Warning_]:
        """All specialists' warnings over a span, time-ordered (ties in
        member order)."""
        out = [w for warned in self._replay(history, t0, t1) for w in warned]
        out.sort(key=lambda w: w.t)
        return out

    def score(
        self, history: AlertHistory, t0: float, t1: float
    ) -> Dict[str, PredictionScore]:
        """Per-category evaluation over a test span."""
        return {
            target: self._evaluate(
                warnings,
                [t for t in history.category_times(target) if t0 <= t < t1],
                target,
            )
            for target, warnings in zip(self.members, self._replay(history, t0, t1))
        }

    def summary(self) -> str:
        lines = ["Ensemble members (category -> specialist):"]
        for target in sorted(self.members):
            member = self.members[target]
            lines.append(
                f"  {target:<12} {member.kind:<10} "
                f"val P={member.validation.precision:.2f} "
                f"R={member.validation.recall:.2f} "
                f"F1={member.validation.f1:.2f}"
            )
        if not self.members:
            lines.append("  (none cleared the F1 bar)")
        return "\n".join(lines)
