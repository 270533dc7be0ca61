"""The composition matrix: every driver combination against the serial
baseline, over the full golden corpus.

This is the acceptance suite for the stage engine: {serial, sharded}
execution crossed with {plain, checkpoint + crash + resume, backpressure,
supervised + injected faults} must reproduce the serial reference output
exactly — same alerts in the same order, same volume statistics down to
the compressed byte, same severity cross-tabs.  (Bounded runs here use
pausable sources and roomy buffers, so the shedding tolerance the
capability table documents collapses to exact equality; the shedding
behavior itself is covered in ``tests/resilience/``.)

Before the engine, three of these eight cells were unreachable —
``run_stream`` refused parallel x checkpoint and parallel x backpressure
outright — so this file is also the regression net for the compositions
the refactor made legal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro import api as pipeline
from repro.engine.drivers import SERIAL_BATCH_SIZE
from repro.engine.path import AlertPath
from repro.parallel.config import ParallelConfig
from repro.resilience.backpressure import BackpressureConfig
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.deadletter import DeadLetterQueue
from repro.resilience.faults import FaultConfig
from repro.resilience.supervisor import supervise
from repro.simulation.generator import LogGenerator

from .conftest import (
    ALL_SYSTEMS,
    assert_equivalent,
    letter_trace,
    reference_path,
    result_signature,
)

CHECKPOINT_EVERY = 50


#: A 10x burst from an unpausable source over a small buffer, served
#: slowly enough (8 records a tick) that the queue stays above its high
#: watermark for the door's ``SUSTAIN`` samples: the 400-record corpora
#: degrade.
DEGRADING_BURST = BackpressureConfig.burst(
    factor=10, service_batch=8, max_buffer=256, degrade=True,
)


class MidStreamCrash(Exception):
    pass


def crash_after(records, at):
    """Re-present ``records`` but die after ``at`` of them."""
    for index, record in enumerate(records):
        if index == at:
            raise MidStreamCrash(f"injected crash at record {at}")
        yield record


def parallel_config(env_workers):
    # Batches small enough that the in-flight window (2 x workers
    # batches, all pulled before the first outcome is merged) stays well
    # inside the 400-record corpus at any pool width: a crash two-thirds
    # in must find a checkpoint behind it.
    return ParallelConfig(workers=env_workers, batch_size=16)


def drivers(env_workers):
    return {"serial": None, "sharded": parallel_config(env_workers)}


@pytest.mark.parametrize("system", ALL_SYSTEMS)
class TestCompositionMatrix:
    def test_plain(self, system, golden_records, serial_baselines,
                   env_workers):
        for name, parallel in drivers(env_workers).items():
            result = pipeline.run_stream(
                iter(golden_records[system]), system, parallel=parallel,
            )
            assert_equivalent(result, serial_baselines[system])
            if name == "sharded":
                assert result.shard_stats is not None
                assert result.shard_stats.records == len(
                    golden_records[system]
                )

    def test_checkpoint_crash_resume(self, system, golden_records,
                                     serial_baselines, env_workers):
        records = golden_records[system]
        crash_at = max(CHECKPOINT_EVERY + 1, (len(records) * 2) // 3)
        for parallel in drivers(env_workers).values():
            manager = CheckpointManager(every=CHECKPOINT_EVERY)
            with pytest.raises(MidStreamCrash):
                pipeline.run_stream(
                    crash_after(records, crash_at), system,
                    checkpointer=manager, parallel=parallel,
                )
            assert manager.latest is not None
            assert 0 < manager.latest.records_consumed <= crash_at
            resumed = pipeline.run_stream(
                iter(records), system, parallel=parallel,
                checkpointer=manager, resume_from=manager.latest,
            )
            assert_equivalent(resumed, serial_baselines[system])

    def test_backpressure(self, system, golden_records, serial_baselines,
                          env_workers):
        for parallel in drivers(env_workers).values():
            result = pipeline.run_stream(
                iter(golden_records[system]), system,
                backpressure=BackpressureConfig(),
                parallel=parallel,
            )
            assert_equivalent(result, serial_baselines[system])
            assert result.overload is not None
            # Pausable source + roomy buffers: exact, nothing lost.
            assert result.overload.total_shed == 0
            assert result.overload.total_spilled == 0
            assert result.dead_letter_count == 0

    def test_burst_tag_seams_agree(self, system, golden_records):
        """One pump, two tag seams: under a shedding burst the in-process
        and worker-pool seams lose the same records and report the same
        overload picture — queue rows and throughput keys included."""
        results = [
            pipeline.run_stream(
                iter(golden_records[system]), system, parallel=parallel,
                backpressure=DEGRADING_BURST,
            )
            for parallel in (None, ParallelConfig(workers=2, batch_size=16))
        ]
        assert_equivalent(*results)
        in_process, pooled = (result.overload for result in results)
        for field_name in (
            "queue_peaks", "queue_capacities", "offered_by_class",
            "shed_by_class", "spilled_by_class", "stage_throughput",
            "samples", "degraded", "events",
        ):
            assert getattr(in_process, field_name) == getattr(
                pooled, field_name
            ), field_name

    def test_supervised_faults(self, system, golden_records,
                               serial_baselines, env_workers):
        records = golden_records[system]
        crash_at = max(CHECKPOINT_EVERY + 1, (len(records) * 2) // 3)
        for parallel in drivers(env_workers).values():
            result = supervise(
                lambda: list(records), system,
                restart_budget=2, checkpoint_every=CHECKPOINT_EVERY,
                faults=FaultConfig.crash_only(at=crash_at),
                parallel=parallel,
            )
            assert not result.degraded
            assert result.restarts == 1
            assert_equivalent(result, serial_baselines[system])


class TestRunSystemKnobs:
    """``run_system`` checkpoint/restart knobs are wired, never silently
    ignored."""

    def test_unsupervised_checkpointing_is_real(self, liberty_result):
        result = pipeline.run_system(
            "liberty", scale=2e-5, seed=20070625, checkpoint_every=500,
        )
        assert result.checkpoints is not None
        assert result.checkpoints.taken > 0
        assert result.checkpoints.latest is not None
        assert result.checkpoints.latest.records_consumed > 0
        assert_equivalent(result, liberty_result)

    def test_restart_budget_alone_supervises(self, monkeypatch,
                                             liberty_result):
        """No ``faults``: a restart budget is what turns supervision on,
        so a real crash in the first presentation of the stream is
        survived instead of raised."""
        generate = LogGenerator.generate
        presentations = []

        def crashes_once(self):
            generated = generate(self)
            presentations.append(generated)
            if len(presentations) == 1:
                generated.records = crash_after(generated.records, 1500)
            return generated

        monkeypatch.setattr(LogGenerator, "generate", crashes_once)
        result = pipeline.run_system(
            "liberty", scale=2e-5, seed=20070625, restart_budget=1,
        )
        assert len(presentations) == 2
        assert not result.degraded
        assert result.restarts == 1
        assert "MidStreamCrash" in result.failure_log[0]
        assert_equivalent(result, liberty_result)

    def test_supervised_parallel_composes(self, env_workers):
        result = pipeline.run_system(
            "liberty", scale=2e-5, seed=20070625,
            faults=FaultConfig.crash_only(at=1500),
            parallel=parallel_config(env_workers),
        )
        assert not result.degraded
        assert result.restarts == 1
        assert result.shard_stats is not None

    def test_bounded_resume_keeps_shed_policy_state(self, golden_records):
        """The bounded driver checkpoints the shed policy's duplicate
        lookback, so a resumed policy remembers what it has seen."""
        system = ALL_SYSTEMS[0]
        records = golden_records[system]
        crash_at = max(CHECKPOINT_EVERY + 1, (len(records) * 2) // 3)
        manager = CheckpointManager(every=CHECKPOINT_EVERY)
        with pytest.raises(MidStreamCrash):
            pipeline.run_stream(
                crash_after(records, crash_at), system,
                checkpointer=manager, backpressure=BackpressureConfig(),
            )
        assert manager.latest is not None
        assert manager.latest.shed_state is not None
        resumed = pipeline.run_stream(
            iter(records), system, resume_from=manager.latest,
            backpressure=BackpressureConfig(),
        )
        baseline = pipeline.run_stream(
            iter(records), system, backpressure=BackpressureConfig(),
        )
        assert_equivalent(resumed, baseline)

    def test_bounded_resume_stays_degraded(self, golden_records):
        """Degraded mode rides the checkpoint as its effects — the raised
        filter ``T`` and the coarse-stats flag — so a resumed pump reports
        the mode it is in instead of a fresh ``False``, and does not log
        entering it a second time."""
        records = golden_records["spirit"]
        manager = CheckpointManager(every=CHECKPOINT_EVERY)
        first = pipeline.run_stream(
            iter(records), "spirit", checkpointer=manager,
            backpressure=DEGRADING_BURST,
        )
        assert first.overload.degraded
        raised = manager.latest.filter_state["threshold"]
        assert raised > first.threshold

        path = AlertPath("spirit", resume_from=manager.latest)
        assert path.filter.threshold == raised
        assert path.stats_collector.coarse
        resumed = pipeline.run_stream(
            iter(records), "spirit", resume_from=manager.latest,
            backpressure=DEGRADING_BURST,
        )
        assert resumed.overload.degraded
        # The events ride the checkpoint too: the whole-run report logs
        # entering degraded mode exactly once.
        assert sum(
            "degraded mode entered" in event
            for event in resumed.overload.events
        ) == 1


@dataclass
class KeepEverySnapshot(CheckpointManager):
    """A manager that also keeps every snapshot it retains as latest."""

    history: list = field(default_factory=list)

    def maybe(self, records_consumed, snapshot):
        taken = super().maybe(records_consumed, snapshot)
        if taken:
            self.history.append(self.latest)
        return taken


class TestSerialCheckpointCadence:
    """The serial barrier is *any record*: with ``every=k`` snapshots
    land on ``records_consumed`` k, 2k, ... — also when the record the
    barrier falls on is quarantined at admission, and when the stream
    ends on one (the per-record loop this replaced skipped the barrier
    check for invalid records: late snapshots, or none at the end)."""

    SYSTEM = "liberty"

    def stream(self, golden_records, every):
        """Two barriers' worth of records (sixty at least, trimmed to a
        whole number of intervals), invalid on the first barrier and at
        the very end."""
        golden = golden_records[self.SYSTEM]
        span = golden[-1].timestamp - golden[0].timestamp + 3600.0
        n = max(2 * every, 60)
        n -= n % every
        stream = [
            golden[i % len(golden)]._replace(
                timestamp=golden[i % len(golden)].timestamp
                + span * (i // len(golden)))
            for i in range(n)
        ]
        for consumed in (every, n - 1, n):
            stream[consumed - 1] = stream[consumed - 1]._replace(
                timestamp=float("nan")
            )
        return stream

    @staticmethod
    def observable(result):
        return (
            result_signature(result),
            letter_trace(result.dead_letters),
            result.checkpoints.taken,
        )

    @pytest.mark.parametrize("every", [1, 7, SERIAL_BATCH_SIZE + 1])
    def test_snapshots_land_on_every_kth_record(self, golden_records, every):
        stream = self.stream(golden_records, every)
        manager = KeepEverySnapshot(every=every)
        whole = pipeline.run_stream(
            iter(stream), self.SYSTEM, dead_letters=DeadLetterQueue(),
            checkpointer=manager,
        )
        barriers = list(range(every, len(stream) + 1, every))
        assert [s.records_consumed for s in manager.history] == barriers
        assert manager.taken == len(barriers)
        assert [s.snapshots_taken for s in manager.history] == list(
            range(1, len(barriers) + 1)
        )

        reference = reference_path(
            self.SYSTEM, stream, dead_letters=DeadLetterQueue()
        )
        assert result_signature(whole) == result_signature(reference.result())
        assert whole.dead_letter_count == reference.dead_letters.quarantined == 3

        for snapshot in manager.history:
            resumed = pipeline.run_stream(
                iter(stream), self.SYSTEM, dead_letters=DeadLetterQueue(),
                checkpointer=CheckpointManager(every=every),
                resume_from=snapshot,
            )
            assert self.observable(resumed) == self.observable(whole)
