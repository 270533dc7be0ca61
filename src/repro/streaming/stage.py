"""The engine-facing prediction stage.

:class:`PredictionStage` observes every ruled-on alert at the sink seam
(:class:`repro.engine.stages.ObservingSink` tees the alert flow into
it), reorders within the filter's tolerance, and forwards *finalized*
alerts — those no later arrival can precede — to the correlation miner
and the online ensemble.

Ordering contract: the spatio-temporal filter clamps backwards
timestamps to at most ``reorder_tolerance`` behind the running maximum
(anything worse raises), so every observed alert satisfies
``t >= max_seen - tolerance``.  The stage therefore finalizes pending
alerts strictly below ``max_seen - tolerance``, sorted by
``(timestamp, arrival index)``.  That sequence is a pure function of
the alert stream — not of batch sizes, drain cadence, or driver — which
is the invariant behind the cross-driver golden equivalence tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .miner import CorrelationGraph, StreamingCorrelationMiner
from .online import (
    MemberRow,
    OnlineEnsemble,
    OnlineWarning,
    PredictionConfig,
)

#: Matches repro.engine.path.DEFAULT_REORDER_TOLERANCE (not imported to
#: keep this package independent of the engine).
DEFAULT_REORDER_TOLERANCE = 1.0

#: Observers defer draining until this many alerts are pending; the
#: finalized sequence is drain-cadence-invariant, so this only bounds
#: buffering cost (and amortizes the miner's per-slice work), never
#: changes output.
_DRAIN_BATCH = 2048


@dataclass(frozen=True)
class PredictionReport:
    """What a run's prediction stage produced, attached to PipelineResult."""

    warnings: Tuple[OnlineWarning, ...]
    warnings_emitted: int
    members: Tuple[MemberRow, ...]
    refits: int
    observed: int
    graph: CorrelationGraph

    def summary_lines(self) -> List[str]:
        lines = [
            "warnings=%d refits=%d members=%d observed_alerts=%d"
            % (self.warnings_emitted, self.refits, len(self.members), self.observed)
        ]
        for row in self.members:
            lines.append(
                "  %s <- %s (val P=%.2f R=%.2f F1=%.2f)"
                % (row.target, row.kind, row.precision, row.recall, row.f1)
            )
        lines.extend(self.graph.summary_lines())
        return lines


class PredictionStage:
    """Streaming correlation mining + online prediction over raw alerts.

    The stage consumes *raw* (pre-spatio-temporal-filter) alerts: burst
    and dispersion-frame signatures live in exactly the repetitions the
    filter is designed to drop.
    """

    def __init__(
        self,
        config: Optional[PredictionConfig] = None,
        reorder_tolerance: float = DEFAULT_REORDER_TOLERANCE,
    ) -> None:
        self.config = config or PredictionConfig()
        self.reorder_tolerance = float(reorder_tolerance)
        self.miner = StreamingCorrelationMiner()
        self.ensemble = OnlineEnsemble(self.config)
        # (timestamp, arrival seq, (t, category, source, severity));
        # plain tuples, not SlimAlerts — see the SlimAlert docstring.
        self._pending: List[Tuple[float, int, Tuple[Any, ...]]] = []
        self._seq = 0
        self._max_seen = -math.inf
        self._finished = False
        self.observed = 0

    # -- observer protocol (driven by ObservingSink) -------------------

    def observe_batch(self, pairs: Iterable[Tuple[Any, bool]]) -> None:
        pending = self._pending
        seq = self._seq
        max_seen = self._max_seen
        for alert, _kept in pairs:
            t = alert.timestamp
            pending.append(
                (t, seq, (t, alert.category, alert.source, alert.record.severity))
            )
            seq += 1
            if t > max_seen:
                max_seen = t
        self.observed += seq - self._seq
        self._seq = seq
        self._max_seen = max_seen
        if len(pending) >= _DRAIN_BATCH:
            self._drain(max_seen - self.reorder_tolerance)

    def _drain(self, watermark: float) -> None:
        pending = self._pending
        if not pending:
            if watermark != -math.inf:
                self.miner.advance(watermark)
            return
        pending.sort()
        # (watermark,) sorts before every (t, seq, alert) with t ==
        # watermark, so the split keeps t < watermark strictly.
        cut = bisect_left(pending, (watermark,))
        if cut:
            ready = pending[:cut]
            del pending[:cut]
            self.ensemble.advance([entry[2] for entry in ready])
            self.miner.extend_columns(
                [entry[0] for entry in ready],
                [entry[2][1] for entry in ready],
                [entry[2][2] for entry in ready],
            )
        self.miner.advance(watermark)

    def finish(self) -> None:
        """Flush: the stream ended, so every pending alert is final."""
        if self._finished:
            return
        self._drain(math.inf)
        self._finished = True

    # -- reporting -----------------------------------------------------

    def report(self) -> PredictionReport:
        return PredictionReport(
            warnings=tuple(self.ensemble.warnings),
            warnings_emitted=self.ensemble.warnings_emitted,
            members=tuple(self.ensemble.member_rows()),
            refits=self.ensemble.refits,
            observed=self.observed,
            graph=self.miner.graph(),
        )

    # -- durability ----------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.key(),
            "reorder_tolerance": self.reorder_tolerance,
            "miner": self.miner.state_dict(),
            "ensemble": self.ensemble.state_dict(),
            "pending": [
                (t, seq, tuple(slim)) for t, seq, slim in sorted(self._pending)
            ],
            "seq": self._seq,
            "max_seen": self._max_seen,
            "observed": self.observed,
            "finished": self._finished,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        if tuple(state["config"]) != self.config.key():
            raise ValueError(
                "prediction stage configuration mismatch: checkpoint %r vs %r"
                % (tuple(state["config"]), self.config.key())
            )
        self.miner.load_state_dict(state["miner"])
        self.ensemble.load_state_dict(state["ensemble"])
        self._pending = [
            (t, int(seq), tuple(slim)) for t, seq, slim in state["pending"]
        ]
        self._seq = int(state["seq"])
        self._max_seen = state["max_seen"]
        self.observed = int(state["observed"])
        self._finished = bool(state["finished"])


def prediction_stage(predict: Any) -> PredictionStage:
    """The stage a truthy ``predict`` knob asks for: ``True`` means the
    defaults, a :class:`PredictionConfig` that lead window.  Callers
    test the knob first, so predict-less runs never import this
    package."""
    config = predict if isinstance(predict, PredictionConfig) else None
    return PredictionStage(config=config)
