"""Checkpoint-interval analysis under measured failure processes.

The paper's Section 4 opens with why failure models matter: "these models
are then used to study the effects of failures on other aspects of the
system, such as job scheduling or checkpointing performance", and then
warns that assuming independence (exponential interarrivals) is wrong for
most alert categories.  The authors' own prior work (cooperative
checkpointing [14, 15]) is exactly such a consumer.

This module closes that loop quantitatively:

* :func:`young_interval` / :func:`daly_interval` — the classical optimal
  checkpoint intervals, which *assume* exponential interarrivals with a
  given MTBF;
* :func:`simulate_lost_work` — replay an application against an actual
  failure-time sequence (e.g. the filtered alerts of one category) and
  measure wasted time for a given checkpoint interval;
* :func:`interval_sweep` — wasted time across intervals, exposing how far
  the exponential-assumption optimum sits from the empirical optimum when
  failures are correlated — the paper's "one size does not fit all" made
  measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence


def young_interval(mtbf: float, checkpoint_cost: float) -> float:
    """Young's first-order optimal interval: sqrt(2 * C * MTBF)."""
    if mtbf <= 0 or checkpoint_cost <= 0:
        raise ValueError("mtbf and checkpoint_cost must be positive")
    return math.sqrt(2.0 * checkpoint_cost * mtbf)


def daly_interval(mtbf: float, checkpoint_cost: float) -> float:
    """Daly's higher-order refinement of Young's interval.

    Uses the perturbation solution
    ``sqrt(2 C M) * (1 + sqrt(C/(2M))/3 + (C/(2M))/9) - C`` for C < 2M,
    falling back to ``M`` otherwise (checkpointing cannot help when a
    checkpoint costs more than the time between failures).
    """
    if mtbf <= 0 or checkpoint_cost <= 0:
        raise ValueError("mtbf and checkpoint_cost must be positive")
    if checkpoint_cost >= 2.0 * mtbf:
        return mtbf
    ratio = math.sqrt(checkpoint_cost / (2.0 * mtbf))
    return (
        math.sqrt(2.0 * checkpoint_cost * mtbf)
        * (1.0 + ratio / 3.0 + ratio * ratio / 9.0)
        - checkpoint_cost
    )


@dataclass(frozen=True)
class CheckpointOutcome:
    """Result of replaying one (interval, failure-sequence) combination."""

    interval: float
    wall_time: float
    useful_work: float
    checkpoint_overhead: float
    rework: float
    failures_hit: int

    @property
    def efficiency(self) -> float:
        """Useful work per wall-clock second (1.0 = failure-free, no
        checkpoints)."""
        return self.useful_work / self.wall_time if self.wall_time > 0 else 0.0


def simulate_lost_work(
    failure_times: Sequence[float],
    interval: float,
    checkpoint_cost: float,
    work_target: float,
    restart_cost: float = 0.0,
    start: float = 0.0,
) -> CheckpointOutcome:
    """Replay an application against a concrete failure-time sequence.

    The application starts at ``start``, needs ``work_target`` seconds of
    computation, checkpoints every ``interval`` seconds of progress at
    ``checkpoint_cost`` each, and on a failure loses progress since the
    last completed checkpoint, pays ``restart_cost``, and resumes.  Wall
    time accrues until the work target is met (or all failures are
    consumed, after which execution is failure-free).
    """
    if interval <= 0 or checkpoint_cost < 0 or work_target <= 0:
        raise ValueError("interval and work_target must be positive")
    failures = sorted(t for t in failure_times if t >= start)
    failure_idx = 0
    now = start
    done = 0.0          # work safely checkpointed
    overhead = 0.0
    rework = 0.0
    hits = 0

    while done < work_target:
        segment_work = min(interval, work_target - done)
        needs_checkpoint = done + segment_work < work_target
        segment_span = segment_work + (checkpoint_cost if needs_checkpoint else 0.0)
        segment_end = now + segment_span

        if failure_idx < len(failures) and failures[failure_idx] < segment_end:
            # Failure mid-segment: everything since the last checkpoint is
            # lost; wall time ran until the failure plus the restart.
            failure_time = failures[failure_idx]
            failure_idx += 1
            hits += 1
            rework += failure_time - now
            now = failure_time + restart_cost
            overhead += restart_cost
            continue

        now = segment_end
        done += segment_work
        if needs_checkpoint:
            overhead += checkpoint_cost

    return CheckpointOutcome(
        interval=interval,
        wall_time=now - start,
        useful_work=work_target,
        checkpoint_overhead=overhead,
        rework=rework,
        failures_hit=hits,
    )


def interval_sweep(
    failure_times: Sequence[float],
    intervals: Sequence[float],
    checkpoint_cost: float,
    work_target: float,
    restart_cost: float = 0.0,
    start: float = 0.0,
) -> Dict[float, CheckpointOutcome]:
    """Replay every candidate interval against the same failure sequence."""
    return {
        interval: simulate_lost_work(
            failure_times, interval, checkpoint_cost, work_target,
            restart_cost=restart_cost, start=start,
        )
        for interval in intervals
    }
