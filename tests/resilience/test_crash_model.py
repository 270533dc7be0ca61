"""The durable batch path as one fault model.

One hypothesis property drives ``api.run_stream(..., state_dir=...)``
through a drawn list of faults, then resumes it to completion.  The
faults are a kill after record k, a kill inside filesystem op j (after
that op's torn half-write, exactly what SIGKILL leaves on disk), a disk
that fills from op j with ENOSPC or EIO, and a truncated or bit-flipped
newest generation or MANIFEST.  The checkpoint store, its alert copy
and the columnar store write through one filesystem, so op j may be a
checkpoint write, a write, truncate, append or fsync of the copy, a
store page write or append, or a store MANIFEST replace.  The checks:

* every run that completes fingerprints like the uninterrupted run, and
  a bounded one reports the uninterrupted bounded run's overload;
* a generation whose bytes differ from what the run wrote is
  quarantined as ``*.corrupt``, never loaded, and no other generation
  is (without a store, one whose alert copy fell short would be);
* without a store, a run whose disk fills finishes degraded; every
  checkpoint it took is either saved or counted as unpersisted, and one
  that started on the full disk is unpersisted.  With a store, the store
  is the run's result: a full disk ends the run with the ``OSError``,
  and the next step resumes it.

The axes are drawn once per example: driver (serial, sharded, or
bounded with room enough that nothing sheds), ``predict`` on or off,
and ``store_dir`` on or off.
"""

import errno
import glob
import os
import tempfile
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.parallel.config import ParallelConfig
from repro.resilience import wire
from repro.resilience.backpressure import BackpressureConfig
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.deadletter import DeadLetterQueue
from repro.resilience.durability import CheckpointStore
from repro.resilience.faults import FaultyFilesystem
from repro.simulation.generator import generate_log

from ..conftest import SEED, Killed, KillableFilesystem

#: The first weeks of a Spirit log: most lines are alerts, the
#: predictor installs members and warns, so every fingerprint field
#: carries data, and the store's category-by-hour partitions stay few.
SYSTEM = "spirit"
RECORDS = tuple(generate_log(SYSTEM, scale=2e-4, seed=SEED).records)[:5000]
EVERY = 400

DRIVERS = {
    "serial": {},
    "sharded": {"parallel": ParallelConfig(workers=2, batch_size=256)},
    "bounded": {"backpressure": BackpressureConfig(
        max_buffer=1024, arrival_batch=256, service_batch=256,
    )},
}

#: Kill points are drawn from the filesystem ops of one whole run,
#: without and with a store (without one, each save's alert-copy write,
#: or truncate, append and fsync, is an op too; with one, each new
#: column file, page append and store MANIFEST replace is).
RUN_FS_OPS = {False: 94, True: 550}


class ModelFilesystem(KillableFilesystem):
    """Notes the op index each checkpoint save starts at."""

    def __init__(self, **schedule):
        super().__init__(**schedule)
        self.saves = []

    def write_bytes(self, path, data, sync=True):
        if path.endswith(".ckpt.tmp"):
            self.saves.append(self.ops)
        super().write_bytes(path, data, sync=sync)


class ResumeStore(CheckpointStore):
    """Remembers the checkpoint the run resumed from; the attribute is
    unset when the run died while loading."""

    def load(self, expect):
        self.resumed = super().load(expect)
        return self.resumed


def killed_after(records, k):
    for count, record in enumerate(records, 1):
        yield record
        if count >= k:
            raise Killed(f"after record {k}")


def fingerprint(result):
    """What the run claims about the log: the fields
    ``scripts/chaos_crash.py`` hashes, compared whole (every warning,
    ensemble member, refit count and the correlation graph included)."""
    return (
        result.stats, list(result.raw_alerts), list(result.filtered_alerts),
        result.category_counts(), result.corrupted_messages,
        result.dead_letters.quarantined, result.prediction,
    )


def run(source, predict, driver="serial", checkpointer=None,
        state_dir=None, store_dir=None):
    return api.run_stream(
        source, SYSTEM,
        dead_letters=DeadLetterQueue(capacity=len(RECORDS) + 1),
        checkpointer=checkpointer, state_dir=state_dir,
        predict=predict, store_dir=store_dir, **DRIVERS[driver],
    )


@lru_cache(maxsize=None)
def baseline(predict):
    """The uninterrupted in-memory serial run.  Every driver, with or
    without a store, must land on it."""
    result = run(iter(RECORDS), predict)
    if predict:
        assert result.prediction.warnings_emitted > 0
    return fingerprint(result)


@lru_cache(maxsize=None)
def bounded_overload():
    """The uninterrupted bounded run's overload report.  A resumed
    bounded run's report must equal it: its tallies ride the checkpoint."""
    return run(iter(RECORDS), False, "bounded").overload


def complete(state):
    """Whether the state dir's MANIFEST marks a finished run."""
    try:
        with open(os.path.join(state, "MANIFEST"), "rb") as f:
            return wire.load_file(f.read(), wire.CHECKPOINT_MAGIC, dict)[
                "complete"]
    except (OSError, wire.WireError):
        return False


def read(path):
    with open(path, "rb") as f:
        return f.read()


def damage(state, target, flip, at):
    """Truncate or flip one byte of the newest generation or the
    MANIFEST; the generation's path and its bytes before the damage,
    else ``None``."""
    pattern = "gen-*.ckpt" if target == "generation" else "MANIFEST"
    paths = sorted(glob.glob(os.path.join(state, pattern)))
    if not paths or not os.path.getsize(paths[-1]):
        return None
    data = read(paths[-1])
    at %= len(data)
    with open(paths[-1], "wb") as f:
        f.write(data[:at] + bytes((data[at] ^ 0xFF,)) + data[at + 1:]
                if flip else data[:at])
    return (paths[-1], data) if target == "generation" else None


def steps(fs_ops):
    return st.lists(st.one_of(
        st.tuples(st.just("kill after record"), st.integers(1, len(RECORDS))),
        st.tuples(st.just("kill in op"), st.integers(0, fs_ops)),
        st.tuples(st.just("disk full"), st.integers(0, fs_ops),
                  st.sampled_from((errno.ENOSPC, errno.EIO))),
        st.tuples(st.just("damage"),
                  st.sampled_from(("generation", "MANIFEST")),
                  st.booleans(), st.integers(0, 1 << 16)),
        st.tuples(st.just("resume")),
    ), max_size=5)


#: ``(with_store, steps)``: the kill and full-disk points span the ops
#: of a run with that store setting.
PLANS = st.booleans().flatmap(
    lambda with_store: st.tuples(st.just(with_store),
                                 steps(RUN_FS_OPS[with_store]))
)


def test_an_uninterrupted_durable_run_spans_the_drawn_ops():
    for with_store in (False, True):
        with tempfile.TemporaryDirectory() as directory:
            state = os.path.join(directory, "state")
            store = CheckpointStore(state, fs=FaultyFilesystem())
            result = run(iter(RECORDS), False, state_dir=state,
                         checkpointer=CheckpointManager(EVERY, store=store),
                         store_dir=(os.path.join(directory, "store")
                                    if with_store else None))
            assert fingerprint(result) == baseline(False)
        assert store.saved == result.checkpoints.taken >= 10
        assert store.fs.ops >= RUN_FS_OPS[with_store]


@settings(max_examples=30, deadline=None)
@given(driver=st.sampled_from(sorted(DRIVERS)), predict=st.booleans(),
       plan=PLANS)
# Store faults: a kill tearing a page appended to an existing column
# file, a kill at the store MANIFEST replace, and a disk that fills
# inside a store commit.
@example(driver="serial", predict=False, plan=(True, [("kill in op", 164)]))
@example(driver="serial", predict=False, plan=(True, [("kill in op", 58)]))
@example(driver="bounded", predict=False,
         plan=(True, [("disk full", 100, errno.ENOSPC)]))
# Alert-copy faults, without a store: a kill between the second save's
# copy frame and its generation write (the copy is then ahead of the
# generation loaded), then the same kill in the resumed run (whose
# first frame repeats the stale frame's range); a kill tearing the
# copy's first write; and a disk that fills inside a copy append or
# fsync.
@example(driver="serial", predict=False,
         plan=(False, [("kill in op", 8), ("kill in op", 10)]))
@example(driver="serial", predict=False, plan=(False, [("kill in op", 0)]))
@example(driver="serial", predict=False,
         plan=(False, [("disk full", 13, errno.ENOSPC)]))
@example(driver="bounded", predict=False,
         plan=(False, [("disk full", 14, errno.EIO)]))
# A finished run's generations must not outlive it.  Here the next run
# is killed early and the MANIFEST is damaged; had the generations
# stayed, the resume would load the finished run's older one into a
# store the next run had wiped (``StoreError: resume watermark ...
# exceeds committed store seq``).
@example(driver="bounded", predict=True, plan=(True, [
    ("kill after record", 16), ("resume",), ("kill in op", 0),
    ("damage", "generation", True, 100), ("damage", "MANIFEST", True, 7),
]))
# Likewise when the next run's first generation is the damaged one: the
# fallback generation must not be the finished run's.
@example(driver="bounded", predict=False, plan=(True, [
    ("resume",), ("kill after record", 620),
    ("damage", "generation", False, 0),
]))
# Two flips of one byte restore the generation: nothing to quarantine.
@example(driver="bounded", predict=False, plan=(False, [
    ("kill in op", 2), ("damage", "generation", True, 100),
    ("damage", "generation", True, 100),
]))
def test_every_recovery_matches_the_uninterrupted_run(driver, predict, plan):
    with_store, steps = plan
    expected = baseline(predict)
    with tempfile.TemporaryDirectory() as directory:
        state = os.path.join(directory, "state")
        store_dir = os.path.join(directory, "store") if with_store else None
        written = {}  # damaged generation -> the bytes the run wrote
        hit = set()  # every generation a step damaged
        for step in steps + [("resume",)]:
            if step[0] == "damage":
                target = damage(state, *step[1:])
                if target is not None:
                    written.setdefault(*target)
                    hit.add(target[0] + ".corrupt")
                continue
            damaged = [path for path, data in written.items()
                       if os.path.exists(path) and read(path) != data]
            written = {}
            source, schedule = iter(RECORDS), {}
            if step[0] == "kill after record":
                source = killed_after(source, step[1])
            elif step[0] == "kill in op":
                schedule = {"kill_at": step[1]}
            elif step[0] == "disk full":
                schedule = {"fail_after": step[1], "fail_errno": step[2]}
            fs = ModelFilesystem(**schedule)
            store = ResumeStore(state, token="model", fs=fs)
            resumable = not complete(state)
            try:
                result = run(
                    source, predict, driver,
                    checkpointer=CheckpointManager(EVERY, store=store),
                    state_dir=state, store_dir=store_dir,
                )
            except Killed:
                result = None
            except OSError:
                assert with_store and step[0] == "disk full"
                assert fs.ops > fs.fail_after
                result = None

            if (resumable and hasattr(store, "resumed")
                    and fs.fail_after is None):
                for path in damaged:
                    assert not os.path.exists(path)
                    assert os.path.exists(path + ".corrupt")
            # Only damage is quarantined: no generation names alerts its
            # copy lacks.
            assert set(glob.glob(os.path.join(state, "*.corrupt"))) <= hit
            if result is None:
                continue

            assert fingerprint(result) == expected
            if driver == "bounded":
                assert result.overload == bounded_overload()
            status = store.status
            if step[0] != "disk full":
                assert not status.degraded, status.reason
                continue
            assert status.degraded == (fs.ops > fs.fail_after)
            prior = store.resumed.snapshots_taken if store.resumed else 0
            taken = result.checkpoints.taken - prior
            assert taken == store.saved + status.unpersisted_checkpoints
            if fs.saves and fs.saves[-1] >= fs.fail_after:
                # The last save started on a full disk.
                assert status.unpersisted_checkpoints >= 1
