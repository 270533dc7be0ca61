"""Supervised pipeline runs: crash recovery, degradation, run_all.

Holds the two acceptance properties of the resilience work: a crash at a
random point in a supervised run recovers to byte-identical output, and
``run_all`` under default fault injection finishes all five systems.
"""

import numpy as np
import pytest

from repro import api as pipeline
from repro.resilience.faults import FaultConfig
from repro.resilience.supervisor import supervise
from repro.simulation.generator import generate_log
from repro.store import ColumnarStore, load_result
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

        result = pipeline.run_system(
            "spirit", scale=SMALL_SCALE, seed=SEED,
            faults=FaultConfig.crash_only(at=crash_at, seed=SEED),
            restart_budget=3, checkpoint_every=500,
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
        result = pipeline.run_system(
            "liberty", scale=SMALL_SCALE, seed=SEED,
            faults=FaultConfig.crash_only(at=40, seed=SEED),
            restart_budget=1, checkpoint_every=5000,
        )
        assert result.restarts == 1
        assert result.stats == baseline.stats
        assert result.filtered_alerts == baseline.filtered_alerts

    def test_restart_from_scratch_counts_each_quarantine_once(self):
        """Regression: a crash before the first checkpoint, after a batch
        that quarantined a record, restarts from scratch — and used to
        keep that attempt's dead letters, so the record the restart met
        again was counted twice."""
        records = list(
            generate_log("liberty", scale=SMALL_SCALE, seed=SEED).records
        )
        records[10] = records[10]._replace(timestamp=float("nan"))
        runs = [
            supervise(lambda: records, "liberty", restart_budget=1,
                      checkpoint_every=len(records), faults=faults)
            for faults in (None, FaultConfig.crash_only(at=5000))
        ]
        plain, restarted = runs
        assert restarted.restarts == 1
        assert restarted.dead_letters.by_reason == {"invalid-record": 1}
        assert (restarted.dead_letters.snapshot()
                == plain.dead_letters.snapshot())

    def test_unfaulted_supervised_run_matches_plain(self):
        baseline = pipeline.run_system("liberty", scale=SMALL_SCALE, seed=SEED)
        result = supervise(
            lambda: generate_log("liberty", scale=SMALL_SCALE,
                                 seed=SEED).records,
            "liberty", restart_budget=3, checkpoint_every=2000,
        )
        assert result.restarts == 0
        assert not result.degraded
        assert result.stats == baseline.stats
        assert result.filtered_alerts == baseline.filtered_alerts


class TestDegradation:
    def test_budget_exhaustion_degrades_instead_of_raising(self):
        """A channel that crashes every ~20 records exhausts the budget;
        the supervisor hands back a flagged partial, not an exception."""
        result = pipeline.run_system(
            "liberty", scale=SMALL_SCALE, seed=SEED,
            faults=FaultConfig(seed=1, crash_rate=0.05),
            restart_budget=2, checkpoint_every=10,
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
        result = pipeline.run_system(
            "liberty", scale=SMALL_SCALE, seed=SEED,
            faults=FaultConfig.crash_only(at=300, seed=SEED),
            restart_budget=0, checkpoint_every=100,
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
            supervise(list, "liberty", restart_budget=-1, checkpoint_every=1)


class TestDurableSupervision:
    @pytest.mark.parametrize("with_store", [False, True],
                             ids=["memory", "store"])
    def test_exhausted_run_resumes_from_state_dir(self, tmp_path,
                                                   spirit_result,
                                                   with_store):
        """A supervised run out of restarts never marks its state dir
        complete: the same run re-invoked without faults resumes from
        the last durable checkpoint and finishes byte-identical to an
        uninterrupted run — its columnar store too, truncated back to
        the checkpoint's watermark before the suffix is re-emitted."""
        run = dict(
            scale=SMALL_SCALE, seed=SEED, state_dir=str(tmp_path / "state"),
            store_dir=str(tmp_path / "store") if with_store else None,
        )
        degraded = pipeline.run_system(
            "spirit", faults=FaultConfig.crash_only(at=7000, seed=SEED),
            restart_budget=0, checkpoint_every=500, **run,
        )
        assert degraded.degraded
        assert degraded.stats.messages == 7000

        resumed = pipeline.run_system("spirit", **run)
        assert not resumed.degraded
        # The snapshot count carries over from the supervised run's
        # 500-record cadence: the re-invocation resumed, it did not
        # start over.
        assert resumed.checkpoints.taken > 7000 // 500
        assert resumed.stats == spirit_result.stats
        assert resumed.raw_alerts == spirit_result.raw_alerts
        assert resumed.filtered_alerts == spirit_result.filtered_alerts
        assert resumed.category_counts() == spirit_result.category_counts()
        if with_store:
            replayed = load_result(run["store_dir"])
            assert replayed.raw_alerts == spirit_result.raw_alerts
            assert replayed.filtered_alerts == spirit_result.filtered_alerts
            assert not ColumnarStore(run["store_dir"]).degraded


class TestRunAll:
    def test_run_all_with_default_faults_completes_all_systems(self):
        """ACCEPTANCE: with fault injection enabled at defaults, run_all
        completes for all five systems — reporting per-system degraded
        and dead-letter counts instead of crashing."""
        results = pipeline.run_all(
            scale=SMALL_SCALE, seed=SEED, faults=FaultConfig.defaults(seed=11),
            restart_budget=3, checkpoint_every=1000,
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
