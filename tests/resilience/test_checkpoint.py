"""Checkpoint/resume: interrupted runs must land byte-identical."""

import dataclasses

import pytest

from repro import api as pipeline
from repro.core.filtering import SpatioTemporalFilter
from repro.logio.stats import StatsCollector
from repro.resilience.checkpoint import CheckpointManager, PipelineCheckpoint
from repro.resilience.deadletter import DeadLetterQueue
from repro.resilience.faults import CollectorCrash, FaultConfig, FaultPlan
from repro.simulation.generator import generate_log

from ..conftest import SEED, SMALL_SCALE, make_alert


class TestFilterState:
    def test_state_roundtrip_matches_uninterrupted(self):
        alerts = [make_alert(t, category="C" if t % 2 else "D")
                  for t in range(0, 50)]
        straight = SpatioTemporalFilter(5.0)
        kept_straight = [straight.offer(a) for a in alerts]

        first = SpatioTemporalFilter(5.0)
        for alert in alerts[:20]:
            first.offer(alert)
        resumed = SpatioTemporalFilter(5.0)
        resumed.load_state_dict(first.state_dict())
        kept_resumed = [first.offer(a) for a in alerts[20:]]
        kept_check = [resumed.offer(a) for a in alerts[20:]]
        assert kept_resumed == kept_straight[20:]
        assert kept_check == kept_straight[20:]

    def test_state_dict_is_a_copy(self):
        stf = SpatioTemporalFilter(5.0)
        stf.offer(make_alert(1.0))
        state = stf.state_dict()
        stf.offer(make_alert(100.0, category="OTHER"))
        assert "OTHER" not in state["last_seen"]


class TestStatsSnapshot:
    def test_resumed_compression_is_byte_identical(self):
        records = list(generate_log("liberty", scale=1e-5, seed=SEED).records)
        straight = StatsCollector("liberty")
        for _ in straight.observe(iter(records)):
            pass
        full = straight.finish()

        # observe() flushes at stream end; snapshot mid-stream instead.
        head = StatsCollector("liberty")
        stream = head.observe(iter(records))
        for _ in range(500):
            next(stream)
        snap = head.snapshot()
        resumed = StatsCollector.from_snapshot(snap)
        for _ in resumed.observe(iter(records[500:])):
            pass
        assert resumed.finish() == full

    def test_snapshot_unaffected_by_continuation(self):
        records = list(generate_log("liberty", scale=1e-5, seed=SEED).records)
        collector = StatsCollector("liberty")
        stream = collector.observe(iter(records))
        for _ in range(200):
            next(stream)
        snap = collector.snapshot()
        messages_at_snap = snap.stats.messages
        for _ in stream:
            pass
        assert snap.stats.messages == messages_at_snap


class TestManager:
    def test_cadence(self):
        manager = CheckpointManager(every=10)
        taken = [manager.maybe(n, lambda: object()) for n in (3, 9, 10, 15, 20)]
        assert taken == [False, False, True, False, True]
        assert manager.taken == 2

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            CheckpointManager(every=0)


class TestRunStreamResume:
    def _crash_then_resume(self, crash_at, every=300, edit=lambda c: c):
        """Crash a liberty run at ``crash_at`` records, resume from the
        latest checkpoint (passed through ``edit``), and return (baseline,
        resumed) results."""
        # The baseline checkpoints at the same cadence: summary equality
        # below then also asserts the resumed run's snapshot accounting
        # matches an uninterrupted run's (prime() restores ``taken``).
        baseline = pipeline.run_stream(
            generate_log("liberty", scale=SMALL_SCALE, seed=SEED).records,
            "liberty",
            dead_letters=DeadLetterQueue(),
            checkpointer=CheckpointManager(every=every),
        )

        plan = FaultPlan(FaultConfig.crash_only(at=crash_at, seed=SEED))
        manager = CheckpointManager(every=every)
        dlq = DeadLetterQueue()
        with pytest.raises(CollectorCrash):
            pipeline.run_stream(
                plan.wrap(
                    generate_log("liberty", scale=SMALL_SCALE, seed=SEED).records
                ),
                "liberty",
                dead_letters=dlq,
                checkpointer=manager,
            )
        checkpoint = manager.latest
        assert isinstance(checkpoint, PipelineCheckpoint)
        assert checkpoint.records_consumed <= crash_at
        checkpoint = edit(checkpoint)

        resumed = pipeline.run_stream(
            plan.wrap(
                generate_log("liberty", scale=SMALL_SCALE, seed=SEED).records
            ),
            "liberty",
            dead_letters=dlq,
            checkpointer=manager,
            resume_from=checkpoint,
        )
        return baseline, resumed

    def test_resume_is_byte_identical(self):
        baseline, resumed = self._crash_then_resume(crash_at=2000)
        assert resumed.stats == baseline.stats
        assert resumed.raw_alerts == baseline.raw_alerts
        assert resumed.filtered_alerts == baseline.filtered_alerts
        assert resumed.category_counts() == baseline.category_counts()
        assert resumed.corrupted_messages == baseline.corrupted_messages
        assert resumed.severity_tab.messages == baseline.severity_tab.messages
        assert resumed.summary() == baseline.summary()

    def test_resume_immediately_after_checkpoint_boundary(self):
        baseline, resumed = self._crash_then_resume(crash_at=600, every=300)
        assert resumed.stats == baseline.stats
        assert resumed.filtered_alerts == baseline.filtered_alerts

    def test_resume_from_filter_state_with_counters(self):
        """Checkpoints written while the filter still counted seen/kept
        alerts carry both counters in ``filter_state``: such a state
        restores to the same clock and the resumed run is unchanged."""

        def as_written_with_counters(checkpoint):
            state = checkpoint.filter_state
            assert set(state) == {
                "threshold", "reorder_tolerance", "last_time", "last_seen",
            }
            old = {
                "threshold": state["threshold"],
                "reorder_tolerance": state["reorder_tolerance"],
                "last_time": state["last_time"],
                "last_seen": dict(state["last_seen"]),
                "seen": 1234,
                "kept": 56,
            }
            old_checkpoint = dataclasses.replace(checkpoint, filter_state=old)
            assert old_checkpoint.restore_filter().state_dict() == state
            return old_checkpoint

        baseline, resumed = self._crash_then_resume(
            crash_at=2000, edit=as_written_with_counters
        )
        assert resumed.stats == baseline.stats
        assert resumed.raw_alerts == baseline.raw_alerts
        assert resumed.filtered_alerts == baseline.filtered_alerts
        assert resumed.summary() == baseline.summary()

    def test_resume_rejects_wrong_system(self):
        plan = FaultPlan(FaultConfig.crash_only(at=500, seed=SEED))
        manager = CheckpointManager(every=100)
        with pytest.raises(CollectorCrash):
            pipeline.run_stream(
                plan.wrap(
                    generate_log("liberty", scale=SMALL_SCALE, seed=SEED).records
                ),
                "liberty",
                checkpointer=manager,
            )
        with pytest.raises(ValueError):
            pipeline.run_stream(
                iter([]), "spirit", resume_from=manager.latest
            )
