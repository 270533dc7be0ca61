"""The per-alert warning runtime: each predictor's warning rule, once.

A trained predictor hands its rule over as a *member row*
(:meth:`~repro.prediction.base.Predictor.member`): a dict of the trained
parameters and the live state — ``target``, ``kind``, ``refractory``,
``last_warn`` (the refractory clock), plus what its ``kind`` reads.  The
online ensemble drives one runtime over the live stream; :func:`replay`
drives a fresh one over a span of an :class:`AlertHistory`, so offline
warnings and validation scoring decide what the live stream would.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .base import Predictor, Warning_
from .dft import _rules_fire
from .features import AlertHistory


class WarningRuntime:
    """Member rows applied to a time-ordered stream of ``(timestamp,
    category, source, severity)`` tuples; ``emit(row, t, score)`` gets
    every warning.  ``window`` is the burst rows' trailing window, one
    per runtime since they share the trailing-window buffer.
    """

    def __init__(
        self, window: float, emit: Callable[[Dict[str, Any], float, float], None]
    ) -> None:
        self.window = window
        self._emit_to = emit
        self.members: Dict[Any, Dict[str, Any]] = {}
        # trailing-window buffer for burst counting: ascending times with
        # a consumed-prefix pointer (compacted periodically)
        self._burst_buf: List[float] = []
        self._burst_start = 0
        self._reindex()

    def install(self, members: Dict[Any, Dict[str, Any]]) -> None:
        """Replace the member rows (the rows themselves are the state)."""
        self.members = members
        self._reindex()

    def prime(self, times: Sequence[float]) -> None:
        """Append ascending times that precede the stream to the burst
        window, without applying any rule to them."""
        self._burst_buf.extend(times)

    def trailing_times(self) -> List[float]:
        """The burst buffer past its consumed prefix (checkpoint state)."""
        return self._burst_buf[self._burst_start :]

    def advance(self, alerts: Sequence[Tuple[Any, ...]]) -> None:
        """Apply every member to alerts with ascending timestamps: the
        per-alert burst loop while a burst member is installed, else a
        bulk append that gates only the alerts some member watches — the
        burst loop recomputes its window pointer from any lower bound, so
        both emit the same warnings."""
        if self._burst_members:
            self._advance_slow(alerts)
        else:
            self._advance_no_burst(alerts)

    def _advance_slow(self, alerts: Sequence[Tuple[Any, ...]]) -> None:
        """Per-alert loop while a burst-rate member is installed: the
        burst members on each alert's trailing-window count, then
        :meth:`_gate`."""
        buf = self._burst_buf
        burst_members = self._burst_members
        min_burst = self._min_burst_threshold
        window = self.window
        gated = self._sev_members or self._precursor_trigger or self._dft_members
        gate = self._gate
        buf_append = buf.append
        for alert in alerts:
            t = alert[0]
            # Trailing-window alert count over [t - window, t): earlier
            # alerts only, so an alert at a tied timestamp never counts
            # itself or its twins — the burst rule's "count at arrival".
            start = self._burst_start
            lo = t - window
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

    def _advance_no_burst(self, alerts: Sequence[Tuple[Any, ...]]) -> None:
        """No burst-rate member installed: bulk-append, and run
        :meth:`_gate` only over alerts that could trigger a member (a
        severity label or a watched category).  No gated kind reads the
        burst buffer, so this emits what the per-alert loop would."""
        if not alerts:
            return
        buf = self._burst_buf
        buf.extend(a[0] for a in alerts)
        hot = set(self._precursor_trigger)
        hot.update(self._dft_members)
        if self._sev_members:
            sel: Sequence[Tuple[Any, ...]] = [
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
        start = bisect_left(buf, buf[-1] - self.window, self._burst_start)
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
        for dft in self._dft_members.get(alert[1], ()):
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
        self._emit_to(member, t, score)

    def _reindex(self) -> None:
        self._burst_members: List[Dict[str, Any]] = []
        self._sev_members: List[Dict[str, Any]] = []
        self._precursor_trigger: Dict[str, List[Tuple[Dict[str, Any], float]]] = {}
        self._dft_members: Dict[str, List[Dict[str, Any]]] = {}
        for key in sorted(self.members):
            member = self.members[key]
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
                self._dft_members.setdefault(member["target"], []).append(member)
        self._min_burst_threshold = min(
            (m["threshold"] for m in self._burst_members), default=math.inf
        )


def replay(
    predictors: Sequence[Predictor], history: AlertHistory, t0: float, t1: float
) -> List[List[Warning_]]:
    """Each predictor's warnings over ``[t0, t1)``, in input order: fresh
    rows share one runtime pass per burst window (other kinds read none),
    primed with the history's alerts in ``[t0 - window, t0)``.  A
    predictor that overrides :meth:`Predictor.warnings` warns for itself.
    """
    out: List[List[Warning_]] = [[] for _ in predictors]
    groups: Dict[float, Dict[int, Dict[str, Any]]] = {}
    for i, predictor in enumerate(predictors):
        if type(predictor).warnings is not Predictor.warnings:
            out[i] = predictor.warnings(history, t0, t1)
            continue
        row = predictor.member()
        window = predictor.window if row["kind"] == "burst" else 0.0
        groups.setdefault(window, {})[i] = row
    span = [
        (a.timestamp, a.category, a.source, a.record.severity)
        for a in history.between(t0, t1)
    ]
    for window, rows in groups.items():
        slot = {id(row): out[i] for i, row in rows.items()}
        runtime = WarningRuntime(
            window,
            lambda row, t, score: slot[id(row)].append(
                Warning_(t, row["target"], score)
            ),
        )
        runtime.prime([a.timestamp for a in history.between(t0 - window, t0)])
        runtime.install(rows)
        runtime.advance(span)
    return out
