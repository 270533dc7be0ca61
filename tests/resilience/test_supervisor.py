"""Supervised pipeline runs: crash recovery, degradation, run_all.

Holds the two acceptance properties of the resilience work: a crash at a
random point in a supervised run recovers to byte-identical output, and
``run_all`` under default fault injection finishes all five systems.
"""

import numpy as np
import pytest

from repro import api as pipeline
from repro.resilience.faults import FaultConfig
from repro.resilience.supervisor import PipelineSupervisor
from repro.simulation.generator import generate_log
from repro.systems.specs import SYSTEMS

from ..conftest import SEED, SMALL_SCALE


class TestCrashRecovery:
    def test_spirit_crash_at_random_point_recovers_byte_identical(self):
        """ACCEPTANCE: inject a collector crash at a random point in a
        spirit run; the supervised run resumes from the last checkpoint
        and its filtered-alert list and Table 2-style stats are
        byte-identical to an uninterrupted run with the same seed."""
        baseline = pipeline.run_system("spirit", scale=SMALL_SCALE, seed=SEED)

        stream_len = sum(
            1 for _ in generate_log("spirit", scale=SMALL_SCALE, seed=SEED).records
        )
        rng = np.random.default_rng(SEED)
        crash_at = int(rng.integers(100, stream_len - 10))

        supervisor = PipelineSupervisor(restart_budget=3, checkpoint_every=500)
        result = supervisor.run_system(
            "spirit", scale=SMALL_SCALE, seed=SEED,
            faults=FaultConfig.crash_only(at=crash_at, seed=SEED),
        )

        assert result.restarts == 1
        assert not result.degraded
        assert len(result.failure_log) == 1
        assert "CollectorCrash" in result.failure_log[0]
        assert result.stats == baseline.stats  # incl. compressed_bytes
        assert result.raw_alerts == baseline.raw_alerts
        assert result.filtered_alerts == baseline.filtered_alerts
        assert result.category_counts() == baseline.category_counts()
        assert result.corrupted_messages == baseline.corrupted_messages
        assert result.severity_tab.messages == baseline.severity_tab.messages

    def test_crash_before_first_checkpoint_restarts_from_scratch(self):
        baseline = pipeline.run_system("liberty", scale=SMALL_SCALE, seed=SEED)
        supervisor = PipelineSupervisor(restart_budget=1, checkpoint_every=5000)
        result = supervisor.run_system(
            "liberty", scale=SMALL_SCALE, seed=SEED,
            faults=FaultConfig.crash_only(at=40, seed=SEED),
        )
        assert result.restarts == 1
        assert result.stats == baseline.stats
        assert result.filtered_alerts == baseline.filtered_alerts

    def test_unfaulted_supervised_run_matches_plain(self):
        baseline = pipeline.run_system("liberty", scale=SMALL_SCALE, seed=SEED)
        result = PipelineSupervisor().run_system(
            "liberty", scale=SMALL_SCALE, seed=SEED
        )
        assert result.restarts == 0
        assert not result.degraded
        assert result.stats == baseline.stats
        assert result.filtered_alerts == baseline.filtered_alerts


class TestDegradation:
    def test_budget_exhaustion_degrades_instead_of_raising(self):
        """A channel that crashes every ~20 records exhausts the budget;
        the supervisor hands back a flagged partial, not an exception."""
        supervisor = PipelineSupervisor(restart_budget=2, checkpoint_every=10)
        result = supervisor.run_system(
            "liberty", scale=SMALL_SCALE, seed=SEED,
            faults=FaultConfig(seed=1, crash_rate=0.05),
        )
        assert result.degraded
        assert result.restarts == 2
        # Initial attempt + 2 restarts, plus the final dead-letter
        # accounting line emitted at budget exhaustion.
        assert len(result.failure_log) == 4
        assert "final dead-letter accounting" in result.failure_log[-1]
        assert result.final_dead_letters is not None
        assert "degraded" in result.summary()
        # Partial coverage: some prefix of the stream was analyzed.
        assert result.stats.messages < pipeline.run_system(
            "liberty", scale=SMALL_SCALE, seed=SEED
        ).stats.messages

    def test_zero_budget_degrades_on_first_crash(self):
        supervisor = PipelineSupervisor(restart_budget=0, checkpoint_every=100)
        result = supervisor.run_system(
            "liberty", scale=SMALL_SCALE, seed=SEED,
            faults=FaultConfig.crash_only(at=300, seed=SEED),
        )
        assert result.degraded
        assert result.restarts == 0
        # One crash line plus the final dead-letter accounting line.
        assert len(result.failure_log) == 2

    def test_degraded_predict_run_reports_its_prediction(self):
        """Regression: the hand-assembled degraded result forgot the
        checkpoint's ``prediction_state`` — a ``predict`` run that ran
        out of restarts reported no prediction at all."""
        result = pipeline.run_system(
            "spirit", scale=1e-4, seed=11,
            faults=FaultConfig.crash_only(at=20000), restart_budget=0,
            checkpoint_every=2000, predict=True,
        )
        assert result.degraded
        assert result.stats.messages == 20000
        assert result.prediction is not None
        assert result.prediction.observed == result.raw_alert_count == 13635
        assert "prediction:" in result.summary()

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            PipelineSupervisor(restart_budget=-1)


class TestRunAll:
    def test_run_all_with_default_faults_completes_all_systems(self):
        """ACCEPTANCE: with fault injection enabled at defaults, run_all
        completes for all five systems — reporting per-system degraded
        and dead-letter counts instead of crashing."""
        results = pipeline.run_all(
            scale=SMALL_SCALE, seed=SEED, faults=FaultConfig.defaults(seed=11),
            supervised=True, restart_budget=3, checkpoint_every=1000,
        )
        assert set(results) == set(SYSTEMS)
        for name, result in results.items():
            assert result.system == name
            assert isinstance(result.degraded, bool)
            assert result.dead_letters is not None
            assert result.dead_letter_count >= 0
            assert result.stats.messages > 0
            # Whatever happened is reported, not raised:
            assert isinstance(result.summary(), str)

    def test_run_all_via_pipeline_entrypoint(self):
        """pipeline.run_all(faults=...) routes through the supervisor."""
        results = pipeline.run_all(
            scale=SMALL_SCALE, seed=SEED, faults=FaultConfig.defaults(seed=11)
        )
        assert set(results) == set(SYSTEMS)
        for result in results.values():
            assert result.dead_letters is not None
