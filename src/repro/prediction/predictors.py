"""Concrete failure predictors: the single-feature baselines and the
precursor learner.

The paper's critique (Section 4): "previous prediction approaches focused
on single features for detecting all failure types (e.g. severity levels
or message bursts)."  Both of those single-feature baselines are here —
:class:`BurstPredictor` (message bursts) and :class:`SeverityPredictor`
(high-severity messages) — alongside :class:`PrecursorPredictor`, which
learns per-target precursor categories, the per-class specialization the
paper recommends.  Each trains vectorised over an :class:`AlertHistory`
and warns through the row it hands :mod:`repro.prediction.runtime`.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from .base import Predictor
from .features import AlertHistory


class BurstPredictor(Predictor):
    """Warn when total alert traffic bursts (the message-burst feature).

    Training estimates the background alert rate; prediction fires when a
    trailing window holds ``sigma`` times more alerts than the trained
    expectation.  Deliberately category-blind — that is the point of the
    baseline.
    """

    def __init__(
        self,
        target: str,
        window: float = 600.0,
        sigma: float = 4.0,
        refractory: float = 1800.0,
    ):
        self.target = target
        self.window = window
        self.sigma = sigma
        self.refractory = refractory
        self._expected_per_window = 0.0

    def train(self, history: AlertHistory, t0: float, t1: float) -> None:
        span = max(t1 - t0, 1.0)
        total = history.count_between(t0, t1)
        self._expected_per_window = total * self.window / span

    def member(self) -> Dict[str, Any]:
        threshold = max(3.0, self._expected_per_window * self.sigma)
        return self._row("burst", threshold=threshold)


class SeverityPredictor(Predictor):
    """Warn on any high-severity message (the severity-level feature).

    The weakest baseline on machines that do not record severity — it then
    never warns at all, which is the paper's Table 5/6 point transplanted
    into prediction.
    """

    def __init__(
        self,
        target: str,
        alert_labels: Sequence[str] = ("FATAL", "FAILURE", "EMERG", "ALERT", "CRIT"),
        refractory: float = 1800.0,
    ):
        self.target = target
        self.alert_labels = frozenset(alert_labels)
        self.refractory = refractory

    def train(self, history: AlertHistory, t0: float, t1: float) -> None:
        """Stateless baseline; nothing to fit."""

    def member(self) -> Dict[str, Any]:
        return self._row("severity", labels=sorted(self.alert_labels))


class PrecursorPredictor(Predictor):
    """Learn which categories precede the target, then warn on them.

    Training measures, for every candidate category, the *lift*: how much
    more likely a target failure is within ``lead`` seconds after a
    candidate alert than at a random moment.  Candidates whose lift clears
    ``min_lift`` (and fire at least ``min_support`` times before failures)
    become precursors; prediction warns whenever a precursor fires.

    This is the per-category specialization of Section 4: different
    failure classes get different predictive signatures — or none, in
    which case this predictor stays silent rather than guessing.
    """

    def __init__(
        self,
        target: str,
        lead: float = 3600.0,
        min_lift: float = 3.0,
        min_support: int = 3,
        refractory: float = 900.0,
    ):
        self.target = target
        self.lead = lead
        self.min_lift = min_lift
        self.min_support = min_support
        self.refractory = refractory
        self.precursors: Dict[str, float] = {}

    def train(self, history: AlertHistory, t0: float, t1: float) -> None:
        span = max(t1 - t0, 1.0)
        target_all = history.category_times_np(self.target)
        n_target = int(np.searchsorted(target_all, t1)) - int(
            np.searchsorted(target_all, t0)
        )
        base_rate = n_target / span  # failures per second
        self.precursors = {}
        if not n_target or base_rate <= 0:
            return
        # Vectorized per candidate category: a "hit" is a candidate alert
        # with at least one target alert in [ct, ct + lead).
        for category in history.categories:
            if category == self.target:
                continue
            cand_all = history.category_times_np(category)
            c0 = int(np.searchsorted(cand_all, t0))
            c1 = int(np.searchsorted(cand_all, t1))
            if c0 >= c1:
                continue
            cand = cand_all[c0:c1]
            lo = np.searchsorted(target_all, cand)
            hi = np.searchsorted(target_all, cand + self.lead)
            hits = int((hi > lo).sum())
            hit_rate = hits / cand.size
            expected = min(1.0, base_rate * self.lead)
            lift = hit_rate / expected if expected > 0 else 0.0
            if hits >= self.min_support and lift >= self.min_lift:
                self.precursors[category] = lift

    def member(self) -> Dict[str, Any]:
        return self._row("precursor", precursors=dict(self.precursors))
