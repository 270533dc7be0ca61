"""Crash/resume durability of the prediction stage.

Prediction state — the correlation miner, the online ensemble (members,
refractory clocks, refit schedule), and the stage's pending reorder
buffer — rides ``PipelineCheckpoint.prediction_state`` through the
durable checkpoint wire.  These tests prove the round trip is *exact*:
a run killed mid-stream (an in-process collector crash, or a real
SIGKILL of a worker process) and resumed from ``state_dir`` alone must
reproduce the uninterrupted run's warning stream, ensemble membership,
and correlation graph field-for-field, and a run whose checkpoint
storage is broken (``FaultyFilesystem``) must degrade without
perturbing any prediction output.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.resilience.checkpoint import CheckpointManager, PipelineCheckpoint
from repro.resilience.durability import CheckpointStore
from repro.resilience.faults import (
    CollectorCrash,
    FaultConfig,
    FaultPlan,
    FaultyFilesystem,
)
from repro.simulation.generator import LogGenerator, generate_log
from repro.streaming import PredictionConfig, PredictionStage, online

from ..conftest import copy_frames

REPO = Path(__file__).resolve().parent.parent.parent

#: The smallest calibrated scenario that still installs ensemble
#: members, emits dozens of warnings, and mines a multi-edge graph
#: (mirrors the golden ``redstorm-ddn-disk`` fixture).
SYSTEM = "redstorm"
SCALE = 1e-4
SEED = 11
TOKEN = f"prediction-crash|{SYSTEM}|{SCALE!r}|{SEED}"
CHECKPOINT_EVERY = 2000
KILL_AT = 12_000  # mid-stream, past several checkpoints and refits


def records():
    return generate_log(SYSTEM, scale=SCALE, seed=SEED).records


def run(state_dir=None, wrap=None, checkpointer=None):
    stream = records()
    return api.run_stream(
        wrap(stream) if wrap else stream,
        SYSTEM,
        checkpointer=(
            checkpointer or CheckpointManager(every=CHECKPOINT_EVERY)
        ),
        state_dir=state_dir,
        state_token=TOKEN,
        predict=True,
    )


def assert_prediction_identical(resumed, baseline):
    got, expect = resumed.prediction, baseline.prediction
    assert got is not None and expect is not None
    assert expect.warnings_emitted > 0      # the scenario must warn...
    assert len(expect.members) > 0          # ...and install members,
    assert len(expect.graph.edges) > 1      # ...or this pins nothing
    assert got.warnings == expect.warnings
    assert got.warnings_emitted == expect.warnings_emitted
    assert got.members == expect.members
    assert got.refits == expect.refits
    assert got.observed == expect.observed
    assert got.graph == expect.graph        # edges, sources, spatial, count


@pytest.fixture(scope="module")
def baseline():
    """One uninterrupted run with prediction, shared by every variant."""
    return run()


class TestPredictionCrashResume:
    def test_collector_crash_resume_is_exact(self, tmp_path, baseline):
        """An exception-crashed run resumed from disk alone replays to
        the identical prediction report — warnings, members, graph."""
        plan = FaultPlan(FaultConfig.crash_only(at=KILL_AT, seed=SEED))
        state_dir = str(tmp_path / "state")
        with pytest.raises(CollectorCrash):
            run(state_dir, wrap=plan.wrap)
        persisted = CheckpointStore(state_dir, token=TOKEN).load(
            PipelineCheckpoint
        )
        assert persisted is not None
        assert persisted.prediction_state is not None
        assert persisted.records_consumed <= KILL_AT

        resumed = run(state_dir, wrap=plan.wrap)
        assert_prediction_identical(resumed, baseline)
        # Clean finish consumed the durable state.
        store = CheckpointStore(state_dir, token=TOKEN)
        assert store.load(PipelineCheckpoint) is None

    def test_sigkill_resume_is_exact(self, tmp_path, baseline):
        """The real thing: a worker process SIGKILLed mid-stream (no
        exception handlers, no atexit — the process just dies), then the
        same invocation resumed in this process from ``state_dir``."""
        state_dir = str(tmp_path / "state")
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, state_dir],
            cwd=str(REPO),
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert child.returncode == -int(signal.SIGKILL), child.stderr
        persisted = CheckpointStore(state_dir, token=TOKEN).load(
            PipelineCheckpoint
        )
        assert persisted is not None
        assert persisted.prediction_state is not None

        resumed = run(state_dir)
        assert_prediction_identical(resumed, baseline)

    def test_degraded_storage_never_perturbs_prediction(
        self, tmp_path, baseline
    ):
        """Checkpoint storage failing from the first write must leave
        the prediction output untouched — durability degrades, the
        stream's semantics never do."""
        store = CheckpointStore(
            str(tmp_path / "doomed"), token=TOKEN,
            fs=FaultyFilesystem(fail_after=0),
        )
        manager = CheckpointManager(every=CHECKPOINT_EVERY, store=store)
        degraded = run(checkpointer=manager)
        assert_prediction_identical(degraded, baseline)
        assert store.status.degraded
        assert store.saved == 0


class TestStateFromOlderCode:
    """``fixtures/state/thunderbird-predict`` was written by commit
    1385649, when ``PredictionConfig`` had eighteen fields: the golden
    ``thunderbird-vapi-storm`` stream with ``predict=True``,
    checkpointing every 26,000 records, crashed after 52,000 — past
    three refits, with a burst member installed and one warning out.
    The settings that became constants are still fingerprinted in the
    old order, so the run resumes from it and lands byte-identical to an
    uninterrupted run."""

    FIXTURE = REPO / "tests" / "fixtures" / "state" / "thunderbird-predict"
    #: ``repr(PredictionConfig(lead_min=600.0, lead_max=86400.0).key())``
    #: at that commit: the ``predict`` part of ``run_system``'s state-dir
    #: fingerprint.
    OLD_TOKEN = (
        "(300.0, 60.0, 3600.0, 512, 4096, 600.0, ('burst', 'severity', "
        "'precursor', 'dft'), 512, 2.0, 4096, 0.3333333333333333, 0.2, "
        "0.25, 4, 600.0, 86400.0, 600.0, 20000)"
    )

    @staticmethod
    def _run(state_dir, every=26_000):
        return api.run_stream(
            LogGenerator("thunderbird", scale=3e-4, seed=11).generate().records,
            "thunderbird",
            checkpointer=CheckpointManager(every=every),
            state_dir=state_dir,
            predict=True,
        )

    def _copy(self, tmp_path):
        state_dir = tmp_path / "state"
        shutil.copytree(self.FIXTURE, state_dir)
        return str(state_dir)

    def test_resumes_byte_identical(self, tmp_path, monkeypatch):
        state_dir = self._copy(tmp_path)
        persisted = CheckpointStore(state_dir).load(PipelineCheckpoint)
        assert persisted.records_consumed == 52_000
        ensemble = persisted.prediction_state["ensemble"]
        assert (ensemble["refits"], ensemble["warnings_emitted"]) == (3, 1)
        restored = []
        load = PredictionStage.load_state_dict

        def spy(stage, state):
            restored.append(state["observed"])
            load(stage, state)

        monkeypatch.setattr(PredictionStage, "load_state_dict", spy)
        resumed = self._run(state_dir)
        assert restored == [persisted.prediction_state["observed"]]
        assert resumed.checkpoints.store.status.notes == []

        baseline = self._run(None)
        assert resumed.stats == baseline.stats
        assert resumed.raw_alerts == baseline.raw_alerts
        assert resumed.filtered_alerts == baseline.filtered_alerts
        assert_prediction_identical(resumed, baseline)

    def test_its_alert_tuples_seed_the_copy_once(self, tmp_path):
        """The generations hold alert tuples and no watermark: the
        tuples become the resumed lists, and the first save copies them
        into the state dir's alert copy, each alert once and whole."""
        state_dir = self._copy(tmp_path)
        persisted = CheckpointStore(state_dir).load(PipelineCheckpoint)
        raw, filtered = persisted.alert_log
        assert persisted.store_state == {"seq": len(raw),
                                         "kept": len(filtered)}
        resumed = self._run(state_dir, every=5_000)
        mark = resumed.checkpoints.latest.store_state
        assert mark["seq"] > len(raw) > 0
        copied, kept = [], []
        for at, at_kept, new_raw, new_filtered in copy_frames(state_dir)[1]:
            assert (at, at_kept) == (len(copied), len(kept))
            copied += new_raw
            kept += new_filtered
        assert copied == resumed.raw_alerts[:mark["seq"]]
        assert kept == resumed.filtered_alerts[:mark["kept"]]
        assert [tuple(a.record) for a in copied[:len(raw)]] == \
            [tuple(a.record) for a in raw]

    def test_a_changed_constant_refuses_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(online, "MAX_WARNINGS", 20_001)
        with pytest.raises(ValueError, match="configuration mismatch"):
            self._run(self._copy(tmp_path))

    def test_state_dir_fingerprint_unchanged(self):
        config = PredictionConfig(lead_min=600.0, lead_max=86400.0)
        assert api._predict_token(config) == self.OLD_TOKEN


#: Child body for the SIGKILL variant: identical stream and arguments
#: to :func:`run`, except the source generator kills the process —
#: SIGKILL, uncatchable — after KILL_AT records.
_CHILD = f"""
import os, signal, sys

from repro import api
from repro.resilience.checkpoint import CheckpointManager
from repro.simulation.generator import generate_log


def doomed(stream):
    for i, record in enumerate(stream):
        if i >= {KILL_AT}:
            os.kill(os.getpid(), signal.SIGKILL)
        yield record


api.run_stream(
    doomed(generate_log({SYSTEM!r}, scale={SCALE!r}, seed={SEED}).records),
    {SYSTEM!r},
    checkpointer=CheckpointManager(every={CHECKPOINT_EVERY}),
    state_dir=sys.argv[1],
    state_token={TOKEN!r},
    predict=True,
)
raise SystemExit("unreachable: the stream should have killed us")
"""
