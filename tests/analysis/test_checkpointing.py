"""Unit tests for checkpoint-interval analysis."""

import math

import numpy as np
import pytest

from repro.analysis.checkpointing import (
    daly_interval,
    interval_sweep,
    simulate_lost_work,
    young_interval,
)

HOUR = 3600.0


class TestClassicalIntervals:
    def test_young_formula(self):
        assert young_interval(mtbf=8 * HOUR, checkpoint_cost=60.0) == (
            pytest.approx(math.sqrt(2 * 60 * 8 * HOUR))
        )

    def test_daly_close_to_young_for_cheap_checkpoints(self):
        young = young_interval(24 * HOUR, 30.0)
        daly = daly_interval(24 * HOUR, 30.0)
        assert daly == pytest.approx(young, rel=0.05)

    def test_daly_fallback_for_expensive_checkpoints(self):
        assert daly_interval(mtbf=100.0, checkpoint_cost=500.0) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            young_interval(0, 10)
        with pytest.raises(ValueError):
            daly_interval(10, 0)


class TestSimulation:
    def test_failure_free_run(self):
        outcome = simulate_lost_work(
            [], interval=HOUR, checkpoint_cost=60.0, work_target=4 * HOUR,
        )
        assert outcome.failures_hit == 0
        assert outcome.rework == 0.0
        # Three interior checkpoints (the final segment needs none).
        assert outcome.checkpoint_overhead == pytest.approx(180.0)
        assert outcome.wall_time == pytest.approx(4 * HOUR + 180.0)

    def test_single_failure_causes_rework(self):
        outcome = simulate_lost_work(
            [30 * 60.0], interval=HOUR, checkpoint_cost=0.0,
            work_target=2 * HOUR,
        )
        assert outcome.failures_hit == 1
        assert outcome.rework == pytest.approx(30 * 60.0)
        assert outcome.wall_time == pytest.approx(2 * HOUR + 30 * 60.0)

    def test_restart_cost_charged(self):
        with_restart = simulate_lost_work(
            [600.0], interval=HOUR, checkpoint_cost=0.0,
            work_target=HOUR, restart_cost=120.0,
        )
        without = simulate_lost_work(
            [600.0], interval=HOUR, checkpoint_cost=0.0, work_target=HOUR,
        )
        assert with_restart.wall_time == pytest.approx(
            without.wall_time + 120.0
        )

    def test_checkpointing_bounds_rework(self):
        """With checkpoints every 10 minutes, one failure can cost at most
        ~10 minutes + checkpoint time of rework."""
        failures = [55 * 60.0]
        outcome = simulate_lost_work(
            failures, interval=600.0, checkpoint_cost=10.0,
            work_target=2 * HOUR,
        )
        assert outcome.rework < 700.0

    def test_efficiency_between_zero_and_one(self):
        rng = np.random.default_rng(0)
        failures = np.cumsum(rng.exponential(2 * HOUR, size=48)).tolist()
        outcome = simulate_lost_work(
            failures, interval=HOUR, checkpoint_cost=60.0,
            work_target=24 * HOUR,
        )
        assert 0.0 < outcome.efficiency < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_lost_work([], interval=0, checkpoint_cost=1,
                               work_target=10)


class TestSweep:
    def test_daly_is_near_empirical_optimum_for_poisson_failures(self):
        """When the exponential assumption HOLDS, Daly's formula lands
        near the swept optimum — the sanity direction."""
        rng = np.random.default_rng(7)
        mtbf = 4 * HOUR
        cost = 120.0
        # Poisson failures, the assumption Daly/Young encode, well past
        # the end of the run.
        failures = np.cumsum(rng.exponential(mtbf, size=1000)).tolist()
        daly = daly_interval(mtbf, cost)
        intervals = [daly / 4, daly / 2, daly, daly * 2, daly * 4, daly * 8]
        outcomes = interval_sweep(
            failures, intervals, cost, work_target=2000 * HOUR,
        )
        best = max(outcomes, key=lambda i: outcomes[i].efficiency)
        # Daly's choice is within one sweep step of the empirical best.
        assert best in (daly / 2, daly, daly * 2)

    def test_correlated_failures_shift_the_optimum(self):
        """When failures are bursty (the paper's reality for most
        categories), the within-burst failures cause little extra loss and
        the effective failure rate is the *burst* rate: the naive MTBF
        (which counts every alert) prescribes far too much checkpointing."""
        rng = np.random.default_rng(8)
        failures = []
        t = 0.0
        for _ in range(200):                   # bursts hours apart
            t += float(rng.exponential(20 * HOUR))
            failures.extend(t + k * 120.0 for k in range(10))  # 10 hits, 2 min apart
        cost = 120.0
        naive_mtbf = failures[-1] / len(failures)   # counts every alert
        naive = daly_interval(naive_mtbf, cost)
        burst_mtbf = failures[-1] / 200              # per-failure (filtered)
        informed = daly_interval(burst_mtbf, cost)
        outcomes = interval_sweep(
            failures, [naive, informed], cost, work_target=1000 * HOUR,
        )
        assert outcomes[informed].efficiency > outcomes[naive].efficiency
