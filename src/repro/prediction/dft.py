"""The Dispersion Frame Technique (Lin & Siewiorek).

The paper's related work cites Lin & Siewiorek's "Error log analysis:
statistical modeling and heuristic trend analysis" [11], whose Dispersion
Frame Technique (DFT) is the classic heuristic for predicting hardware
failure from accelerating error interarrivals.  DFT observes that
intermittent errors cluster increasingly tightly before a permanent
failure, and fires on any of five rules over the last few error times.

Definitions, following the original: the *i*-th **dispersion frame** is
the interarrival time between error *i* and error *i-1*.  The published
rules read up to four frames; :func:`_rules_fire` evaluates at most the
**three newest frames** (the last four errors), so the two rules named
after four frames read three here:

* **2-in-1** — the newest frame is at most half the one before it;
* **4-in-1** — the last four errors fall within 24 hours;
* **"2-of-4"** — two of the three newest frames are under one hour;
* **"4-decreasing"** — the three newest frames shrink strictly, and the
  newest is at most half the oldest of them;
* **3.3** — approximated: the last six errors fall within twice the
  newest frame (the original: two successive frames each holding >= 3
  errors in half the frame).

Widening the window to four frames would move the committed warning
streams, so it is an open question rather than a fix.

The rules are evaluated per (source, category) pair, since DFT models
per-device degradation — exactly the ECC-style categories the paper
found to behave like physical processes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from .base import Predictor
from .features import AlertHistory

HOUR = 3600.0
DAY = 86400.0


def _rules_fire(times: Sequence[float]) -> Optional[str]:
    """Evaluate the DFT rules on a device's recent error times.

    ``times`` must be ascending.  The frame rules read the three newest
    frames (the last four errors); the 3.3 approximation reads the last
    six errors.  Returns the first firing rule's name or ``None``.
    """
    if len(times) < 2:
        return None
    frames = [
        times[i] - times[i - 1] for i in range(len(times) - 3, len(times))
        if i >= 1
    ]
    # frames[-1] is the newest interarrival.
    newest = frames[-1]

    # 2-in-1: the newest interarrival is under half the previous frame.
    if len(frames) >= 2 and newest <= frames[-2] / 2:
        return "2-in-1"

    # 4-in-1: four errors inside 24 hours.
    if len(times) >= 4 and times[-1] - times[-4] <= DAY:
        return "4-in-1"

    # "2-of-4": two of the (at most three) newest frames under one hour.
    if len(frames) >= 2 and sum(1 for f in frames[-4:] if f < HOUR) >= 2:
        return "2-of-4"

    # "4-decreasing": the three newest frames shrink, overall by half.
    if len(frames) >= 3:
        last = frames[-3:]
        if all(b < a for a, b in zip(last, last[1:])) and last[-1] <= last[0] / 2:
            return "4-decreasing"

    # 3.3 rule: two successive frames each holding >= 3 errors needs
    # denser bookkeeping; approximate with 6 errors inside two newest
    # frames' span.
    if len(times) >= 6:
        span = max(newest, 1e-9) * 2
        if times[-1] - times[-6] <= span:
            return "3.3"
    return None


class DftPredictor(Predictor):
    """DFT wrapped in the ensemble's :class:`Predictor` interface.

    Warnings are per-device degradation advisories for the target
    category.  Training is a no-op (DFT is parameter-free); the value of
    including it in the ensemble is that validation scoring routes only
    physically-degrading categories to it.
    """

    def __init__(self, target: str, refractory: float = 12 * HOUR):
        self.target = target
        self.refractory = refractory

    def train(self, history: AlertHistory, t0: float, t1: float) -> None:
        """Parameter-free heuristic; nothing to fit."""

    def member(self) -> Dict[str, Any]:
        # Per-source error times and advisory clocks: each source is
        # refractory on its own (a replacement advisory, not a pager).
        return self._row("dft", min_history=2, sources={}, last_fired={})
