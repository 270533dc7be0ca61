"""The durability layer's three promises, tested in isolation and
end-to-end: a torn tail costs at most the torn frame, bit-rot is
quarantined instead of trusted, and a broken disk degrades the run
without touching its output."""

import errno
import importlib
import os
import pickle
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api as pipeline
from repro.engine.path import AlertPath
from repro.logio.reader import read_log
from repro.resilience import wire
from repro.resilience.checkpoint import CheckpointManager, PipelineCheckpoint
from repro.resilience.deadletter import DeadLetterQueue
from repro.resilience.durability import (
    AlertCopy,
    CheckpointStore,
    DurabilityStatus,
    RealFilesystem,
    SegmentedWal,
)
from repro.resilience.faults import (
    CollectorCrash,
    FaultConfig,
    FaultPlan,
    FaultyFilesystem,
)
from repro.simulation.generator import generate_log

from ..conftest import SEED, SMALL_SCALE, Hostile, copy_frames

ENTRIES = [("alert", {"n": i, "body": "x" * (i % 7)}) for i in range(40)]


def small_checkpoint(system="bgl", n=200):
    """A genuine PipelineCheckpoint with non-trivial state."""
    path = AlertPath(system, dead_letters=DeadLetterQueue())
    for record in list(generate_log(system, scale=1e-4, seed=SEED).records)[:n]:
        if path.admit(record):
            path.process(record)
    return path.snapshot()


class TestSegmentedWal:
    def test_round_trip_across_rotation(self, tmp_path):
        wal = SegmentedWal(str(tmp_path), segment_bytes=256)
        for kind, obj in ENTRIES:
            assert wal.append(kind, obj)
        wal.close()
        assert len(wal.segments()) > 1  # rotation actually happened
        assert wal.appended == wal.persisted == len(ENTRIES)

        fresh = SegmentedWal(str(tmp_path), segment_bytes=256)
        assert list(fresh.replay()) == ENTRIES
        assert not fresh.status.degraded

    def test_manual_sync_mode(self, tmp_path):
        wal = SegmentedWal(str(tmp_path), sync_every=0)
        for kind, obj in ENTRIES[:5]:
            assert wal.append(kind, obj)
        assert wal.sync()
        wal.close()
        assert list(SegmentedWal(str(tmp_path)).replay()) == ENTRIES[:5]

    def test_torn_tail_is_truncated_and_appendable(self, tmp_path):
        wal = SegmentedWal(str(tmp_path))
        for kind, obj in ENTRIES[:10]:
            wal.append(kind, obj)
        wal.close()
        segment = tmp_path / wal.segments()[-1]
        clean_size = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(b"\xde\xad\xbe")  # half-written frame, then SIGKILL

        recovered = SegmentedWal(str(tmp_path))
        assert list(recovered.replay()) == ENTRIES[:10]
        assert segment.stat().st_size == clean_size  # tail cut off
        assert any("torn tail" in note for note in recovered.status.notes)
        assert not recovered.status.degraded  # recovery, not failure

        recovered.append("late", 1)
        recovered.close()
        assert list(SegmentedWal(str(tmp_path)).replay()) == (
            ENTRIES[:10] + [("late", 1)]
        )

    def test_bit_rot_mid_journal_quarantines_and_stops(self, tmp_path):
        wal = SegmentedWal(str(tmp_path), segment_bytes=256)
        for kind, obj in ENTRIES:
            wal.append(kind, obj)
        wal.close()
        segments = wal.segments()
        assert len(segments) > 2
        victim = tmp_path / segments[1]
        data = bytearray(victim.read_bytes())
        data[wire.HEADER_SIZE + 10] ^= 0xFF
        victim.write_bytes(bytes(data))

        recovered = SegmentedWal(str(tmp_path), segment_bytes=256)
        replayed = list(recovered.replay())
        # Everything before the rot survives; nothing after it is trusted.
        assert replayed == ENTRIES[:len(replayed)]
        assert len(replayed) < len(ENTRIES)
        # The rotten segment keeps its clean prefix; later ones move aside.
        assert victim.exists()
        assert (tmp_path / (segments[2] + ".corrupt")).exists()
        assert any("skipped" in note for note in recovered.status.notes)
        assert list(SegmentedWal(str(tmp_path)).replay()) == replayed

    def test_enospc_degrades_with_exact_accounting(self, tmp_path):
        status = DurabilityStatus()
        wal = SegmentedWal(
            str(tmp_path), fs=FaultyFilesystem(fail_after=0), status=status
        )
        results = [wal.append("alert", i) for i in range(5)]
        assert results == [False] * 5
        assert status.degraded
        assert f"OSError({errno.ENOSPC}," in status.reason
        assert status.unpersisted_wal_records == 5
        assert wal.appended == 5 and wal.persisted == 0

    def test_reset_drops_segments(self, tmp_path):
        wal = SegmentedWal(str(tmp_path))
        wal.append("alert", 1)
        wal.close()
        assert wal.segments()
        wal.reset()
        assert wal.segments() == []
        assert list(SegmentedWal(str(tmp_path)).replay()) == []


@settings(max_examples=100, deadline=None)
@given(
    segment_bytes=st.sampled_from([128, 256, 1 << 20]),
    sizes=st.lists(st.integers(0, 63), min_size=1, max_size=24),
    flip=st.booleans(),
    segment=st.integers(0, 1 << 16),
    at=st.integers(0, 1 << 16),
)
def test_damaged_journal_replays_a_prefix_twice(
    segment_bytes, sizes, flip, segment, at
):
    """Truncate or flip one byte of any segment: replay never raises,
    yields exactly the entries before the damage, and a second replay
    yields the same."""
    entries = [("op", (i, "x" * n)) for i, n in enumerate(sizes)]
    with tempfile.TemporaryDirectory() as directory:
        wal = SegmentedWal(directory, segment_bytes=segment_bytes)
        for kind, obj in entries:
            wal.append(kind, obj)
        wal.close()
        names = wal.segments()
        frames = [
            wire.scan_frames((Path(directory) / name).read_bytes())[0]
            for name in names
        ]
        segment %= len(names)
        path = Path(directory) / names[segment]
        data = path.read_bytes()
        at %= len(data)
        path.write_bytes(
            data[:at] + bytes((data[at] ^ 0xFF,)) + data[at + 1:]
            if flip else data[:at]
        )

        ends = [wire.HEADER_SIZE]
        for payload in frames[segment]:
            ends.append(ends[-1] + wire.FRAME_HEADER_SIZE + len(payload))
        before = sum(map(len, frames[:segment]))
        kept = before + sum(end <= at for end in ends[1:])
        expected = entries[:kept]
        if not flip and at in ends:
            # A cut on a frame boundary leaves a well-formed, shorter
            # segment.  Entries carry no sequence numbers, so the format
            # cannot see the loss and replay goes on to later segments.
            expected += entries[before + len(frames[segment]):]

        first = list(SegmentedWal(directory).replay())
        assert first == expected
        assert list(SegmentedWal(directory).replay()) == first


def dict_store(directory, token="t", **kwargs):
    return CheckpointStore(str(directory), token=token, **kwargs)


class TestCheckpointStore:
    def test_pipeline_checkpoint_round_trip(self, tmp_path):
        checkpoint = small_checkpoint()
        store = CheckpointStore(str(tmp_path), token="run")
        assert store.save(checkpoint)
        assert store.saved == 1

        loaded = CheckpointStore(str(tmp_path), token="run").load(
            PipelineCheckpoint
        )
        assert loaded is not None
        assert loaded.records_consumed == checkpoint.records_consumed
        # The generation carries the watermark; the alerts come back
        # from the state dir's copy.
        assert loaded.store_state == checkpoint.store_state
        assert loaded.store_state["seq"] > 0
        assert loaded.alert_log == checkpoint.alert_log
        assert loaded.report == checkpoint.report
        assert loaded.dead_letters == checkpoint.dead_letters

    def test_keep_window_prunes_old_generations(self, tmp_path):
        store = dict_store(tmp_path, keep=2)
        for generation in range(5):
            assert store.save({"generation": generation})
        names = [n for n in os.listdir(tmp_path) if n.endswith(".ckpt")]
        assert sorted(names) == ["gen-00000004.ckpt", "gen-00000005.ckpt"]
        assert dict_store(tmp_path).load(dict) == {"generation": 4}

    def test_corrupt_newest_falls_back_a_generation(self, tmp_path):
        store = dict_store(tmp_path)
        store.save({"generation": 0})
        store.save({"generation": 1})
        newest = tmp_path / "gen-00000002.ckpt"
        data = bytearray(newest.read_bytes())
        data[-4] ^= 0xFF
        newest.write_bytes(bytes(data))

        fresh = dict_store(tmp_path)
        assert fresh.load(dict) == {"generation": 0}
        assert (tmp_path / "gen-00000002.ckpt.corrupt").exists()
        assert any("quarantined" in n for n in fresh.status.notes)

    def test_wrong_token_starts_fresh(self, tmp_path):
        dict_store(tmp_path, token="seed=1").save({"generation": 0})
        other = dict_store(tmp_path, token="seed=2")
        assert other.load(dict) is None
        assert any("different run configuration" in n
                   for n in other.status.notes)

    def test_mark_complete_leaves_nothing_to_resume(self, tmp_path):
        store = dict_store(tmp_path)
        store.save({"generation": 0})
        assert store.mark_complete()
        assert dict_store(tmp_path).load(dict) is None

    def test_a_finished_runs_generations_go_at_the_next_load(self, tmp_path):
        """A damaged MANIFEST must not bring a finished run back: the
        load that sees it complete drops that run's generations.  They
        stay readable until then (the benchmark sizes them)."""
        store = dict_store(tmp_path)
        store.save({"generation": 1})
        store.save({"generation": 2})
        assert store.mark_complete()
        assert (tmp_path / "gen-00000002.ckpt").exists()

        assert dict_store(tmp_path).load(dict) is None
        manifest = tmp_path / "MANIFEST"
        manifest.write_bytes(manifest.read_bytes()[:-3])
        assert dict_store(tmp_path).load(dict) is None
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".ckpt")]

    def test_enospc_save_degrades_with_exact_accounting(self, tmp_path):
        status = DurabilityStatus()
        store = dict_store(
            tmp_path, fs=FaultyFilesystem(fail_after=0), status=status
        )
        assert store.save({"generation": 0}) is False
        assert store.save({"generation": 1}) is False
        assert status.degraded
        assert status.unpersisted_checkpoints == 2
        assert store.saved == 0
        assert dict_store(tmp_path).load(dict) is None  # nothing half-written

    def test_eio_uses_requested_errno(self, tmp_path):
        status = DurabilityStatus()
        store = dict_store(
            tmp_path,
            fs=FaultyFilesystem(fail_after=0, fail_errno=errno.EIO),
            status=status,
        )
        store.save({"generation": 0})
        assert f"OSError({errno.EIO}," in status.reason

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(str(tmp_path), keep=0)


def hostile_frame(obj):
    """One CRC-valid frame around a plain pickle, as an attacker (or any
    pickle-writing tool) would build it."""
    return wire.encode_frame(pickle.dumps(obj))


class TestUntrustedState:
    def test_every_state_type_resolves(self):
        for module, name in sorted(wire.STATE_TYPES):
            cls = getattr(importlib.import_module(module), name)
            assert isinstance(cls, type), (module, name)

    def test_foreign_global_raises_wire_error(self, tmp_path):
        sentinel = tmp_path / "ran"
        with pytest.raises(wire.WireError, match="not a state type"):
            wire.loads(pickle.dumps(Hostile(sentinel)), object)
        assert not sentinel.exists()

    def test_crafted_generation_is_quarantined(self, tmp_path):
        sentinel = tmp_path / "ran"
        state = tmp_path / "state"
        dict_store(state).save({"generation": 0})
        (state / "gen-00000002.ckpt").write_bytes(
            wire.file_header(wire.CHECKPOINT_MAGIC) + hostile_frame({
                "meta": {"token": "t", "generation": 2},
                "checkpoint": Hostile(sentinel),
            })
        )

        fresh = dict_store(state)
        assert fresh.load(dict) == {"generation": 0}
        assert not sentinel.exists()
        assert (state / "gen-00000002.ckpt.corrupt").exists()
        assert any("quarantined" in note and "not a state type" in note
                   for note in fresh.status.notes)

    @pytest.mark.parametrize("wrapper", [
        {"meta": {"token": "run", "generation": 2}, "checkpoint": "not one"},
        {"meta": {"token": "run", "generation": 2}, "checkpoint": {}},
        {"meta": {"token": "run", "generation": 2}},
        {"meta": "run", "checkpoint": "not one"},
    ])
    def test_generation_of_the_wrong_shape_is_quarantined(
        self, tmp_path, wrapper
    ):
        """Only allowed types, right token, wrong payload: the store
        falls back a generation instead of handing the caller a
        non-checkpoint."""
        checkpoint = small_checkpoint()
        CheckpointStore(str(tmp_path), token="run").save(checkpoint)
        (tmp_path / "gen-00000002.ckpt").write_bytes(
            wire.dump_file(wire.CHECKPOINT_MAGIC, wrapper)
        )

        fresh = CheckpointStore(str(tmp_path), token="run")
        loaded = fresh.load(PipelineCheckpoint)
        assert isinstance(loaded, PipelineCheckpoint)
        assert loaded.records_consumed == checkpoint.records_consumed
        assert (tmp_path / "gen-00000002.ckpt.corrupt").exists()
        assert any("gen-00000002.ckpt quarantined" in note
                   for note in fresh.status.notes)

    def test_crafted_wal_entry_is_dropped(self, tmp_path):
        sentinel = tmp_path / "ran"
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        (wal_dir / "wal-00000000.seg").write_bytes(
            wire.file_header(wire.WAL_MAGIC)
            + hostile_frame(("alert", 1))
            + hostile_frame(("letter", Hostile(sentinel)))
            + hostile_frame(("alert", 2))
        )

        wal = SegmentedWal(str(wal_dir))
        assert list(wal.replay()) == [("alert", 1), ("alert", 2)]
        assert not sentinel.exists()
        assert any("dropped" in note and "not a state type" in note
                   for note in wal.status.notes)


class TestDurableResume:
    """The api-level contract: ``state_dir`` turns an exception-crashed
    run into one that resumes byte-identical from disk alone — no
    in-memory manager survives between the attempts."""

    TOKEN = "liberty|scale|seed"

    def _run(self, state_dir, wrap=None, every=300):
        records = generate_log("liberty", scale=SMALL_SCALE, seed=SEED).records
        return pipeline.run_stream(
            wrap(records) if wrap else records,
            "liberty",
            dead_letters=DeadLetterQueue(),
            checkpointer=CheckpointManager(every=every),
            state_dir=state_dir,
            state_token=self.TOKEN,
        )

    def test_crash_resume_from_disk_is_byte_identical(self, tmp_path):
        baseline = self._run(None)

        plan = FaultPlan(FaultConfig.crash_only(at=2000, seed=SEED))
        state_dir = str(tmp_path / "state")
        with pytest.raises(CollectorCrash):
            self._run(state_dir, wrap=plan.wrap)
        persisted = CheckpointStore(state_dir, token=self.TOKEN).load(
            PipelineCheckpoint
        )
        assert persisted is not None
        assert persisted.records_consumed <= 2000

        resumed = self._run(state_dir, wrap=plan.wrap)
        assert resumed.stats == baseline.stats
        assert resumed.raw_alerts == baseline.raw_alerts
        assert resumed.filtered_alerts == baseline.filtered_alerts
        assert resumed.category_counts() == baseline.category_counts()
        assert resumed.corrupted_messages == baseline.corrupted_messages
        assert (resumed.dead_letters.snapshot()
                == baseline.dead_letters.snapshot())
        # Snapshot accounting is cumulative across the crash, and a
        # clean finish consumes the durable state (manifest complete).
        assert resumed.checkpoints.taken == baseline.checkpoints.taken
        assert not resumed.checkpoints.store.status.degraded
        store = CheckpointStore(state_dir, token=self.TOKEN)
        assert store.load(PipelineCheckpoint) is None

    def test_degraded_storage_never_perturbs_output(self, tmp_path):
        baseline = self._run(None)
        state_dir = str(tmp_path / "doomed")
        records = generate_log("liberty", scale=SMALL_SCALE, seed=SEED).records
        manager = CheckpointManager(every=300)
        result = pipeline.run_stream(
            records,
            "liberty",
            dead_letters=DeadLetterQueue(),
            checkpointer=manager,
            state_dir=state_dir,
            state_token=self.TOKEN,
        )
        # Re-run against a filesystem that fails from the first op.
        doomed = CheckpointStore(
            state_dir + "-b", token=self.TOKEN,
            fs=FaultyFilesystem(fail_after=0),
        )
        manager_b = CheckpointManager(every=300, store=doomed)
        degraded = pipeline.run_stream(
            generate_log("liberty", scale=SMALL_SCALE, seed=SEED).records,
            "liberty",
            dead_letters=DeadLetterQueue(),
            checkpointer=manager_b,
        )
        for run in (result, degraded):
            assert run.stats == baseline.stats
            assert run.filtered_alerts == baseline.filtered_alerts
        status = doomed.status
        assert status.degraded
        assert doomed.saved == 0
        assert status.unpersisted_checkpoints == manager_b.taken

    def test_the_environment_arms_no_faults(self, tmp_path, monkeypatch):
        """Faults are armed by passing a ``FaultyFilesystem``, never by
        the environment a run inherits."""
        monkeypatch.setenv("REPRO_FAULT_FS_FAIL_AFTER", "0")
        result = self._run(str(tmp_path / "state"))
        store = result.checkpoints.store
        assert type(store.fs) is RealFilesystem
        assert store.saved == result.checkpoints.taken > 0
        assert not store.status.degraded


@lru_cache(maxsize=None)
def spirit_bench_records():
    """The default-seed Spirit bench log: 30,338 records, ~64% alerts."""
    return tuple(generate_log(
        "spirit", scale=1.1e-4, seed=0, incident_scale=0.08
    ).records)


def records_of(alerts):
    """Every field of each alert's record (alert equality skips them)."""
    return [tuple(alert.record) for alert in alerts]


class TestWatermarks:
    """A checkpoint is a watermark, not a history: it names the ``seq``
    its run's alert log reached, and the log holds the alerts."""

    RECORDS = 7_500

    @staticmethod
    def _run(records, state_dir=None, checkpointer=None, **kwargs):
        return pipeline.run_stream(
            iter(records), "spirit", checkpointer=checkpointer,
            state_dir=state_dir, **kwargs,
        )

    def _interrupted(self, state, **kwargs):
        """A state dir left by a run killed at record 5,000."""
        with pytest.raises(CollectorCrash):
            self._run(FaultPlan(FaultConfig.crash_only(at=5_000, seed=SEED))
                      .wrap(iter(spirit_bench_records()[:self.RECORDS])),
                      str(state), **kwargs)

    @staticmethod
    def _load(state):
        """What a run over ``state`` resumes from, and the load's status."""
        store = CheckpointStore(str(state))
        return store.load(PipelineCheckpoint), store.status

    def _assert_baseline(self, result):
        baseline = self._run(spirit_bench_records()[:self.RECORDS])
        assert result.raw_alerts == baseline.raw_alerts
        assert result.filtered_alerts == baseline.filtered_alerts
        assert result.stats == baseline.stats
        assert records_of(result.raw_alerts) == \
            records_of(baseline.raw_alerts)

    def test_generation_bytes_do_not_grow_with_the_run(self, tmp_path):
        def generation_bytes(n):
            state = tmp_path / str(n)
            self._run(spirit_bench_records()[:n], str(state))
            return sum(path.stat().st_size for path in state.glob("*.ckpt"))

        short, long = generation_bytes(7_500), generation_bytes(30_000)
        assert long <= 1.5 * short, (short, long)

    def test_each_save_copies_only_the_alerts_since_the_last(self, tmp_path):
        state = tmp_path / "state"
        result = self._run(spirit_bench_records()[:self.RECORDS], str(state))
        latest = result.checkpoints.latest
        seq, kept = latest.store_state["seq"], latest.store_state["kept"]
        token, frames = copy_frames(state)
        assert token == "" and len(frames) == result.checkpoints.taken > 1
        raw, filtered = [], []
        for at, at_kept, new_raw, new_filtered in frames:
            assert (at, at_kept) == (len(raw), len(filtered))
            raw += new_raw
            filtered += new_filtered
        assert raw == result.raw_alerts[:seq]
        assert filtered == result.filtered_alerts[:kept]
        assert records_of(raw) == records_of(result.raw_alerts[:seq])

    def test_an_in_memory_checkpoint_holds_the_lists_not_a_copy(self):
        manager = CheckpointManager(every=2_000)
        result = self._run(spirit_bench_records()[:self.RECORDS],
                           checkpointer=manager)
        raw, filtered = manager.latest.alert_log
        assert raw is result.raw_alerts
        assert filtered is result.filtered_alerts
        # The run went on past its latest checkpoint: a prefix is named.
        mark = manager.latest.store_state
        assert 0 < mark["seq"] < len(raw) and 0 < mark["kept"] <= len(filtered)

    def test_a_resume_keeps_every_record_field(self, tmp_path):
        state = tmp_path / "state"
        self._interrupted(state)
        checkpoint, _status = self._load(state)
        assert checkpoint.store_state["seq"] > 0
        resumed = self._run(spirit_bench_records()[:self.RECORDS], str(state))
        assert not resumed.checkpoints.store.status.degraded
        self._assert_baseline(resumed)

    def test_without_its_state_dir_a_watermark_does_not_resume(
        self, tmp_path
    ):
        state = tmp_path / "state"
        self._interrupted(state)
        newest = max(state.glob("gen-*.ckpt"))
        checkpoint = wire.load_file(
            newest.read_bytes(), wire.CHECKPOINT_MAGIC, dict
        )["checkpoint"]
        assert checkpoint.alert_log is None
        assert checkpoint.store_state["seq"] > 0
        with pytest.raises(ValueError, match="with the state_dir"):
            self._run(spirit_bench_records()[:self.RECORDS],
                      resume_from=checkpoint)

    def test_a_finished_runs_copy_goes_at_the_next_load(self, tmp_path):
        state = tmp_path / "state"
        self._run(spirit_bench_records()[:self.RECORDS], str(state))
        assert (state / AlertCopy.NAME).exists()
        assert CheckpointStore(str(state)).load(PipelineCheckpoint) is None
        assert not (state / AlertCopy.NAME).exists()
        assert not list(state.glob("gen-*.ckpt"))

    @pytest.mark.parametrize("damage",
                             ["missing", "header", "frame", "malformed"])
    def test_a_copy_short_of_its_watermark_restarts_the_run(
        self, tmp_path, damage
    ):
        """Every generation the copy cannot serve is quarantined, and
        the fresh run's first save starts the copy over."""
        state = tmp_path / "state"
        self._interrupted(state)
        path = state / AlertCopy.NAME
        data = path.read_bytes()
        if damage == "missing":
            path.unlink()
        elif damage == "malformed":  # a well-framed row that is no alert
            path.write_bytes(wire.file_header(wire.WAL_MAGIC)
                             + wire.dumps("") + wire.dumps((0, 0, [(1,)], [])))
        else:  # flip a byte of the magic, or of the first alert frame
            at = 0 if damage == "header" else len(data) // 4
            path.write_bytes(data[:at] + bytes((data[at] ^ 0xFF,))
                             + data[at + 1:])
        checkpoint, status = self._load(state)
        assert checkpoint is None
        assert sum("quarantined" in note for note in status.notes) == 2
        resumed = self._run(spirit_bench_records()[:self.RECORDS], str(state))
        assert not resumed.checkpoints.store.status.degraded
        self._assert_baseline(resumed)
        assert copy_frames(state)[1][0][:2] == (0, 0)

    def test_a_torn_tail_past_the_watermark_is_cut(self, tmp_path):
        state = tmp_path / "state"
        self._interrupted(state)
        with open(state / AlertCopy.NAME, "ab") as copy:
            copy.write(b"\x00torn")
        checkpoint, status = self._load(state)
        assert checkpoint.store_state["seq"] > 0 and status.notes == []
        resumed = self._run(spirit_bench_records()[:self.RECORDS], str(state))
        assert resumed.checkpoints.store.status.notes == []
        self._assert_baseline(resumed)
        copy_frames(state)  # scans clean to the end

    def test_another_runs_copy_is_started_over(self, tmp_path):
        """A state dir an interrupted run left, reused by a run of other
        settings (another system here): the new run starts fresh, and
        its first save replaces the copy instead of failing on it."""
        state = tmp_path / "state"
        self._interrupted(state, state_token="spirit")
        records = list(generate_log("liberty", scale=SMALL_SCALE,
                                    seed=SEED).records)
        result = pipeline.run_stream(
            iter(records), "liberty", state_dir=str(state),
            checkpointer=CheckpointManager(every=max(1, len(records) // 4)),
            state_token="liberty",
        )
        status = result.checkpoints.store.status
        assert any("starting fresh" in note for note in status.notes)
        assert not status.degraded
        assert result.raw_alerts == pipeline.run_stream(
            iter(records), "liberty").raw_alerts
        token, frames = copy_frames(state)
        assert token == "liberty" and frames[0][:2] == (0, 0)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestStateFromOlderCode:
    """``fixtures/state/liberty-dataclass`` was written by commit da0fb03,
    when records and alerts were frozen dataclasses: the golden Liberty
    corpus, crashed after 130 records, checkpointing every 60.  Its
    pickled alerts cannot load into today's tuples.  Resuming from it must
    not raise: each generation is quarantined with a note, and the run
    starts fresh and finishes as if the state dir had been empty."""

    @staticmethod
    def _run(state_dir):
        return pipeline.run_stream(
            read_log(FIXTURES / "golden" / "liberty.log", "liberty",
                     year=2005),
            "liberty",
            dead_letters=DeadLetterQueue(),
            checkpointer=CheckpointManager(every=60),
            state_dir=state_dir,
        )

    def test_unloadable_generations_are_quarantined_and_the_run_restarts(
        self, tmp_path
    ):
        state_dir = tmp_path / "state"
        shutil.copytree(FIXTURES / "state" / "liberty-dataclass", state_dir)
        result = self._run(str(state_dir))

        notes = result.checkpoints.store.status.notes
        assert sum("quarantined" in note for note in notes) == 2
        assert {"gen-00000001.ckpt.corrupt", "gen-00000002.ckpt.corrupt"} <= \
            set(os.listdir(state_dir))
        baseline = self._run(None)
        assert result.stats == baseline.stats
        assert result.raw_alerts == baseline.raw_alerts
        assert result.filtered_alerts == baseline.filtered_alerts
        assert result.category_counts() == baseline.category_counts()
        assert result.corrupted_messages == baseline.corrupted_messages
        assert result.checkpoints.taken == baseline.checkpoints.taken
