"""Offline warnings replay the per-alert runtime: reference equivalence.

Every predictor's warning rule lives once, in
:class:`repro.prediction.runtime.WarningRuntime`; ``Predictor.warnings``
and ``PredictorEnsemble.fit`` replay it.  Before that, each predictor
decided its offline warnings with a vectorised ``warnings`` body of its
own, and DFT with ``dft_scan``.  Those bodies are kept below verbatim as
the reference (the ``AlertHistory`` indexes they read, now gone from the
library, are rebuilt by the ``_ref_*`` helpers).  Property-based tests
over generated histories — each of the five systems' real categories,
severities including ``None``, duplicate timestamps, alerts just before
the span, non-default parameters — assert:

* for every predictor kind, the replayed warnings' ``(t, category)``
  sequence equals the reference's, and so does each score except a
  precursor's: at a tied timestamp a replay takes the lift of the
  stream-order-first precursor, the reference the alphabetically first;
* ``PredictorEnsemble.fit`` selects the same kind and the same
  ``PredictionScore`` per category as the reference fit loop scoring
  the reference warnings.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.categories import Alert, AlertType
from repro.core.tagging import RulesetHandle
from repro.logmodel.record import LogRecord
from repro.prediction import (
    BurstPredictor,
    DftPredictor,
    PrecursorPredictor,
    PredictorEnsemble,
    SeverityPredictor,
    Warning_,
    evaluate,
)
from repro.prediction.dft import HOUR, _rules_fire
from repro.prediction.features import AlertHistory

SYSTEMS = ("bgl", "liberty", "redstorm", "spirit", "thunderbird")

#: Real category alphabets (the first six rules of each ruleset).
CATEGORIES = {
    system: [c.name for c in RulesetHandle(system).resolve()][:6]
    for system in SYSTEMS
}
SOURCES = ["n0", "n1", "n2"]
SEVERITIES = [None, None, "FATAL", "CRIT", "INFO", "WARNING", "ALERT"]
#: Zero gaps make duplicate timestamps; the spread straddles every
#: window, refractory and DFT frame threshold drawn below.
GAPS = [0.0, 0.0, 1.0, 7.5, 40.0, 300.0, 1800.0, 4000.0, 18000.0, 90000.0]


# -- the reference: the vectorised offline bodies, verbatim -------------------


def _ref_times_array(history: AlertHistory) -> np.ndarray:
    return np.asarray([a.timestamp for a in history.alerts], dtype=np.float64)


def _ref_severity_times(history: AlertHistory, labels) -> List[float]:
    return [
        alert.timestamp
        for alert in history.alerts
        if alert.record.severity in labels
    ]


def _ref_category_alerts(history: AlertHistory, category: str) -> List[Alert]:
    return [a for a in history.alerts if a.category == category]


def _dedupe(warnings: List[Warning_], refractory: float) -> List[Warning_]:
    """Suppress warnings within ``refractory`` seconds of the previous one
    (an un-throttled predictor spams the operator during every burst)."""
    out: List[Warning_] = []
    last: Optional[float] = None
    for warning in sorted(warnings, key=lambda w: w.t):
        if last is None or warning.t - last >= refractory:
            out.append(warning)
            last = warning.t
    return out


@dataclass(frozen=True)
class DftFiring:
    """One DFT rule activation."""

    t: float
    source: str
    rule: str


def dft_scan(
    events: Sequence[Tuple[float, str]],
    min_history: int = 2,
    refractory: float = 12 * HOUR,
) -> List[DftFiring]:
    """Scan (time, source) error events and report DFT firings.

    One firing per source per ``refractory`` period: DFT is a replacement
    advisory, not a pager.
    """
    by_source: Dict[str, List[float]] = {}
    last_fired: Dict[str, float] = {}
    firings: List[DftFiring] = []
    for t, source in sorted(events):
        history = by_source.setdefault(source, [])
        history.append(t)
        if len(history) < min_history:
            continue
        if source in last_fired and t - last_fired[source] < refractory:
            continue
        rule = _rules_fire(history[-6:])
        if rule is not None:
            last_fired[source] = t
            firings.append(DftFiring(t=t, source=source, rule=rule))
    return firings


def reference_burst(self, history, t0, t1):
    threshold = max(3.0, self._expected_per_window * self.sigma)
    # Evaluate at each alert arrival (bursts only begin at alerts).
    # Vectorized: searchsorted(side='left') is bisect_left, so the
    # trailing-window counts equal count_between(t - window, t)
    # exactly; the greedy in-order refractory pass below is _dedupe.
    full = _ref_times_array(history)
    i0 = int(np.searchsorted(full, t0))
    i1 = int(np.searchsorted(full, t1))
    if i0 >= i1:
        return []
    t_arr = full[i0:i1]
    counts = np.searchsorted(full, t_arr) - np.searchsorted(
        full, t_arr - self.window
    )
    out: List[Warning_] = []
    last: Optional[float] = None
    for i in np.nonzero(counts >= threshold)[0]:
        t = float(t_arr[i])
        if last is None or t - last >= self.refractory:
            out.append(Warning_(t, self.target, float(counts[i])))
            last = t
    return out


def reference_severity(self, history, t0, t1):
    # One shared pass builds the high-severity time index (memoized
    # on the history); each target then just slices its span.
    times = _ref_severity_times(history, self.alert_labels)
    i0 = bisect_left(times, t0)
    i1 = bisect_left(times, t1)
    out = [Warning_(t, self.target, 1.0) for t in times[i0:i1]]
    return _dedupe(out, self.refractory)


def reference_precursor(self, history, t0, t1):
    if not self.precursors:
        return []
    # Per-precursor span slices instead of a full-history scan;
    # _dedupe re-sorts, so the merge order does not matter.
    out: List[Warning_] = []
    for category in sorted(self.precursors):
        lift = self.precursors[category]
        times = history.category_times(category)
        i0 = bisect_left(times, t0)
        i1 = bisect_left(times, t1)
        out.extend(Warning_(t, self.target, lift) for t in times[i0:i1])
    return _dedupe(out, self.refractory)


def reference_dft(self, history, t0, t1):
    # Span-slice the target category's alerts (ascending) rather than
    # scanning the whole history; dft_scan re-sorts, so this is
    # output-identical to the old full-history filter.
    alerts = _ref_category_alerts(history, self.target)
    times = [a.timestamp for a in alerts]
    i0 = bisect_left(times, t0)
    i1 = bisect_left(times, t1)
    events = [
        (alert.timestamp, alert.source) for alert in alerts[i0:i1]
    ]
    return [
        Warning_(firing.t, self.target, 1.0)
        for firing in dft_scan(events, refractory=self.refractory)
    ]


REFERENCE = {
    BurstPredictor: reference_burst,
    SeverityPredictor: reference_severity,
    PrecursorPredictor: reference_precursor,
    DftPredictor: reference_dft,
}


def reference_warnings(predictor, history, t0, t1):
    return REFERENCE[type(predictor)](predictor, history, t0, t1)


def reference_fit(ensemble, history, train_span, validation_span):
    """The fit loop the vectorised bodies served, scoring each
    candidate's reference warnings: ``{category: (kind, score)}``."""
    members = {}
    for target in history.categories:
        v_failures = [
            t
            for t in history.category_times(target)
            if validation_span[0] <= t < validation_span[1]
        ]
        if len(v_failures) < ensemble.min_failures:
            continue
        best = None
        for kind in sorted(ensemble.factories):
            predictor = ensemble.factories[kind](target)
            predictor.train(history, *train_span)
            warnings = reference_warnings(predictor, history, *validation_span)
            score = evaluate(
                warnings, v_failures, target,
                lead_min=ensemble.lead_min, lead_max=ensemble.lead_max,
            )
            if score.warnings and score.precision < ensemble.min_precision:
                continue  # cries wolf on validation: never selectable
            if best is None or score.f1 > best[1].f1:
                best = (kind, score)
        if best is not None and best[1].f1 >= ensemble.min_f1:
            members[target] = best
    return members


# -- generated histories -------------------------------------------------------


def _alert(t, category, source, severity):
    record = LogRecord(
        timestamp=t, source=source, facility="kernel", body="x",
        severity=severity,
    )
    return Alert(t, source, category, AlertType.SOFTWARE, record)


@st.composite
def scenarios(draw, system):
    """A history, its train/evaluation cuts, and predictor parameters.

    The evaluation span starts at an alert (so alerts sit at and just
    before ``t0``) or between two, and ends at an alert or past them all.
    """
    n = draw(st.integers(min_value=0, max_value=90))
    gaps = draw(st.lists(st.sampled_from(GAPS), min_size=n, max_size=n))
    # A few categories and sources per history, so precursors and DFT
    # devices recur often enough to fire.
    categories = draw(st.lists(
        st.sampled_from(CATEGORIES[system]), min_size=1, max_size=4, unique=True,
    ))
    sources = draw(st.lists(
        st.sampled_from(SOURCES), min_size=1, max_size=3, unique=True,
    ))
    alerts = []
    t = 1_000_000.0
    for gap in gaps:
        t += gap
        alerts.append(_alert(
            t,
            draw(st.sampled_from(categories)),
            draw(st.sampled_from(sources)),
            draw(st.sampled_from(SEVERITIES)),
        ))
    history = AlertHistory(alerts)
    times = [a.timestamp for a in history.alerts] or [t]
    i = draw(st.integers(min_value=0, max_value=len(times) - 1))
    t0 = times[i] + draw(st.sampled_from([0.0, 0.0, -0.5, 0.5]))
    j = draw(st.integers(min_value=i, max_value=len(times)))
    t1 = times[j] if j < len(times) else times[-1] + 1.0
    params = dict(
        window=draw(st.sampled_from([60.0, 300.0, 600.0, 3600.0])),
        sigma=draw(st.sampled_from([0.25, 1.0, 4.0])),
        refractory=draw(st.sampled_from([0.0, 30.0, 1800.0, 7200.0])),
        lead=draw(st.sampled_from([60.0, 600.0, 3600.0])),
        min_lift=draw(st.sampled_from([0.5, 3.0])),
        min_support=draw(st.sampled_from([1, 3])),
        dft_refractory=draw(st.sampled_from([0.0, 600.0, 12 * HOUR])),
    )
    return history, (times[0] - 1.0, t0), (t0, t1), params


def factories(params):
    return {
        "burst": lambda target: BurstPredictor(
            target, window=params["window"], sigma=params["sigma"],
            refractory=params["refractory"],
        ),
        "severity": lambda target: SeverityPredictor(
            target, refractory=params["refractory"],
        ),
        "precursor": lambda target: PrecursorPredictor(
            target, lead=params["lead"], min_lift=params["min_lift"],
            min_support=params["min_support"],
            refractory=params["refractory"],
        ),
        "dft": lambda target: DftPredictor(
            target, refractory=params["dft_refractory"],
        ),
    }


def _times(warnings):
    return [(w.t, w.category) for w in warnings]


class TestReplayMatchesReference:
    @pytest.mark.parametrize("system", SYSTEMS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_kind_warns_as_the_reference(self, system, data):
        history, train, span, params = data.draw(scenarios(system))
        for target in CATEGORIES[system]:
            for kind, factory in sorted(factories(params).items()):
                predictor = factory(target)
                predictor.train(history, *train)
                got = predictor.warnings(history, *span)
                expect = reference_warnings(predictor, history, *span)
                assert _times(got) == _times(expect), (kind, target)
                if kind != "precursor":
                    assert got == expect, (kind, target)

    @pytest.mark.parametrize("system", SYSTEMS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_fit_selects_as_the_reference(self, system, data):
        history, train, validation, params = data.draw(scenarios(system))
        ensemble = PredictorEnsemble(
            factories=factories(params),
            min_f1=data.draw(st.sampled_from([0.0, 0.2])),
            min_precision=data.draw(st.sampled_from([0.0, 0.25])),
            min_failures=data.draw(st.sampled_from([1, 2, 4])),
            lead_min=data.draw(st.sampled_from([0.0, 10.0])),
            lead_max=data.draw(st.sampled_from([600.0, 3600.0, 86400.0])),
        )
        ensemble.fit(history, train, validation)
        got = {
            target: (member.kind, member.validation)
            for target, member in ensemble.members.items()
        }
        assert got == reference_fit(ensemble, history, train, validation)
