"""Crash-durable state: a segmented write-ahead journal and an atomic,
generational checkpoint store.

The paper's corpus took months of continuous collection — the monitors
that produce such logs do not restart from zero.  This module is what
lets ours not restart from zero either: every piece of resumable state
the pipeline and service already maintain in memory
(:class:`~repro.resilience.checkpoint.PipelineCheckpoint`, tenant
``park()`` bundles, dead-letter accounting) gains an on-disk twin that
survives SIGKILL, torn writes, and bit-rot.

Three layers:

* :class:`RealFilesystem` — the narrow syscall surface everything else,
  the columnar store included, uses (write/fsync/replace/remove/...).
  Narrow on purpose: passing a
  :class:`~repro.resilience.faults.FaultyFilesystem` as ``fs=`` lands
  ENOSPC/EIO or a kill mid-fsync at a deterministic operation index.
* :class:`SegmentedWal` — an append-only journal of CRC32-framed
  entries across rotating segment files.  Replay truncates a torn tail
  (the crash case), cuts a mid-journal CRC failure (the bit-rot case)
  the same way and quarantines every later segment rather than trusting
  it, and never raises.
* :class:`CheckpointStore` — full-state snapshots written as
  generations: serialize → temp file → fsync → ``os.replace``
  (:meth:`RealFilesystem.atomic_write`, the one temp-then-replace), then
  a manifest (same dance) naming the newest generation.  Load reads the
  manifest only for its token and completion mark, then tries the
  generations on disk newest first, quarantining each one that fails
  its CRC or type check.

The journal and the store write through :mod:`repro.resilience.wire`,
the one durable codec: a journal entry is one ``wire.dumps`` frame, and
a generation or MANIFEST is one ``wire.dump_file``.  Loading accepts
only the state types ``wire.STATE_TYPES`` names, so a tampered state
dir is quarantined or dropped, never executed; and
:meth:`CheckpointStore.load` takes the payload type its caller expects,
so a generation holding anything else is quarantined too.

Durability failures never take the pipeline down: any OSError from the
storage layer latches :class:`DurabilityStatus` into *degraded* mode —
the run continues in-memory, exactly as before this module existed,
with an exact count of every record and checkpoint that could not be
persisted.  Losing the ability to persist must not become losing data
that was never at risk in memory.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.categories import Alert
from ..logmodel.record import LogRecord
from . import wire
from .checkpoint import PipelineCheckpoint

__all__ = [
    "AlertCopy",
    "CheckpointStore",
    "DurabilityStatus",
    "RealFilesystem",
    "SegmentedWal",
]


# -- the filesystem seam -----------------------------------------------------


class _AppendHandle:
    """A thin append-mode file wrapper the fault filesystem can shadow."""

    def __init__(self, path: str):
        self._file = open(path, "ab")
        self.path = path

    def write(self, data: bytes) -> None:
        self._file.write(data)

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def tell(self) -> int:
        return self._file.tell()

    def close(self) -> None:
        try:
            self._file.flush()
        finally:
            self._file.close()


class RealFilesystem:
    """The narrow filesystem surface every durable byte is written
    through: journals, checkpoints, the columnar store and the tenant
    identity file.  Every mutating operation a fault schedule might want
    to fail or kill inside goes through a named method here."""

    def ensure_dir(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> List[str]:
        return sorted(os.listdir(path))

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def write_bytes(self, path: str, data: bytes, sync: bool = True) -> None:
        with open(path, "wb") as handle:
            handle.write(data)
            if sync:
                handle.flush()
                os.fsync(handle.fileno())

    def open_append(self, path: str) -> _AppendHandle:
        return _AppendHandle(path)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def truncate(self, path: str, length: int) -> None:
        with open(path, "rb+") as handle:
            handle.truncate(length)

    def append_at(self, path: str, offset: int, data: bytes) -> None:
        """Cut ``path`` back to ``offset`` bytes, then append ``data``
        (unsynced, as :meth:`open_append` writes are until a sync)."""
        self.truncate(path, offset)
        handle = self.open_append(path)
        try:
            handle.write(data)
        finally:
            handle.close()

    def files_under(self, path: str) -> List[str]:
        """Every file below ``path``, sorted (none when it is absent)."""
        return sorted(
            os.path.join(dirpath, name)
            for dirpath, _dirnames, names in os.walk(path)
            for name in names
        )

    def atomic_write(self, path: str, data: bytes, sync: bool = True) -> None:
        """Write ``path`` whole or not at all: a dot-prefixed temp file
        beside it, then :meth:`replace`.  A failed write removes the
        temp file; a kill leaves it, never a half-written ``path``."""
        head, name = os.path.split(path)
        tmp = os.path.join(head, f".{name}.tmp")
        try:
            self.write_bytes(tmp, data, sync=sync)
            self.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                self.remove(tmp)
            raise

    def fsync_dir(self, path: str) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - some filesystems refuse
            pass
        finally:
            os.close(fd)


# -- degraded-mode accounting ------------------------------------------------


@dataclass
class DurabilityStatus:
    """The latch that keeps storage failures from becoming outages.

    Once latched, ``degraded`` stays true for the life of the run (a
    filesystem that returned ENOSPC once is not to be trusted with the
    guarantee again), writes keep being *attempted and counted* so the
    unpersisted tallies are exact, and the in-memory pipeline continues
    untouched.
    """

    degraded: bool = False
    reason: str = ""
    #: Exact counts of state that exists in memory but not on disk.
    unpersisted_checkpoints: int = 0
    unpersisted_wal_records: int = 0
    notes: List[str] = field(default_factory=list)

    MAX_NOTES = 50

    def latch(self, where: str, exc: BaseException) -> None:
        if not self.degraded:
            self.degraded = True
            self.reason = f"{where}: {exc!r}"
        self.note(f"{where}: {exc!r}")

    def note(self, message: str) -> None:
        if len(self.notes) < self.MAX_NOTES:
            self.notes.append(message)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "degraded": self.degraded,
            "reason": self.reason,
            "unpersisted_checkpoints": self.unpersisted_checkpoints,
            "unpersisted_wal_records": self.unpersisted_wal_records,
            "notes": list(self.notes),
        }

    def summary_line(self) -> str:
        if not self.degraded:
            return "durability:        ok"
        return (
            f"durability:        DEGRADED ({self.reason}; "
            f"{self.unpersisted_checkpoints} checkpoints / "
            f"{self.unpersisted_wal_records} journal records unpersisted)"
        )


# -- the write-ahead journal -------------------------------------------------


class SegmentedWal:
    """An append-only journal of ``(kind, object)`` entries.

    Each entry is one :func:`repro.resilience.wire.dumps` frame of the
    ``(kind, object)`` pair, appended to ``wal-<n>.seg`` files that
    rotate at ``segment_bytes``.  ``sync_every=1`` fsyncs after every
    append (the default: an acknowledged entry is a durable entry);
    ``sync_every=0`` leaves fsync to explicit :meth:`sync` calls at the
    caller's batch boundaries.

    :meth:`replay` yields every trustworthy entry in append order and
    ends the journal at the first bad frame or header: a torn write at
    the tail of the last segment and bit-rot anywhere earlier are
    repaired alike.  Every later segment is renamed ``*.corrupt``,
    because append order after the damage cannot be vouched for, and
    the damaged segment is cut back to its clean prefix (renamed too
    when even its header is bad).  So a second replay yields exactly
    what the first did.  Replay never raises.
    """

    SEGMENT_PREFIX = "wal-"
    SEGMENT_SUFFIX = ".seg"

    def __init__(
        self,
        directory: str,
        segment_bytes: int = 1 << 20,
        sync_every: int = 1,
        fs: Optional[RealFilesystem] = None,
        status: Optional[DurabilityStatus] = None,
    ):
        self.directory = str(directory)
        self.segment_bytes = segment_bytes
        self.sync_every = sync_every
        self.fs = fs if fs is not None else RealFilesystem()
        self.status = status if status is not None else DurabilityStatus()
        self.appended = 0  # entries accepted by append()
        self.persisted = 0  # entries written without an OSError
        self._handle: Optional[_AppendHandle] = None
        self._since_sync = 0
        self._next_segment = 0

    # -- naming ------------------------------------------------------------

    def _segment_name(self, index: int) -> str:
        return f"{self.SEGMENT_PREFIX}{index:08d}{self.SEGMENT_SUFFIX}"

    def _segment_index(self, name: str) -> Optional[int]:
        if not (name.startswith(self.SEGMENT_PREFIX)
                and name.endswith(self.SEGMENT_SUFFIX)):
            return None
        digits = name[len(self.SEGMENT_PREFIX):-len(self.SEGMENT_SUFFIX)]
        return int(digits) if digits.isdigit() else None

    def segments(self) -> List[str]:
        """Segment file names currently on disk, in append order."""
        if not self.fs.exists(self.directory):
            return []
        named = [
            (index, name)
            for name in self.fs.listdir(self.directory)
            if (index := self._segment_index(name)) is not None
        ]
        return [name for _index, name in sorted(named)]

    # -- appending ---------------------------------------------------------

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.fs.ensure_dir(self.directory)
        existing = self.segments()
        if existing and self._next_segment == 0:
            last = self._segment_index(existing[-1])
            self._next_segment = (last if last is not None else -1) + 1
        path = os.path.join(
            self.directory, self._segment_name(self._next_segment)
        )
        self._next_segment += 1
        handle = self.fs.open_append(path)
        if handle.tell() == 0:
            handle.write(wire.file_header(wire.WAL_MAGIC))
        self._handle = handle

    def append(self, kind: str, obj: Any) -> bool:
        """Append one entry; ``True`` if it reached the journal file.

        Degraded mode keeps accepting (and exactly counting) entries so
        the in-memory pipeline never blocks on a broken disk.
        """
        self.appended += 1
        frame = wire.dumps((kind, obj))
        try:
            if (
                self._handle is None
                or self._handle.tell() + len(frame) > self.segment_bytes
            ):
                self._rotate()
            self._handle.write(frame)
            self._since_sync += 1
            if self.sync_every and self._since_sync >= self.sync_every:
                self._handle.sync()
                self._since_sync = 0
        except OSError as exc:
            self.status.latch("wal append", exc)
            self.status.unpersisted_wal_records += 1
            self._drop_handle()
            return False
        self.persisted += 1
        return True

    def sync(self) -> bool:
        """Fsync the open segment (for ``sync_every=0`` batch callers)."""
        if self._handle is None or self._since_sync == 0:
            return True
        try:
            self._handle.sync()
        except OSError as exc:
            self.status.latch("wal sync", exc)
            # The unsynced suffix may or may not survive a crash; count
            # it as unpersisted — the conservative direction.
            self.status.unpersisted_wal_records += self._since_sync
            self.persisted -= min(self.persisted, self._since_sync)
            self._since_sync = 0
            self._drop_handle()
            return False
        self._since_sync = 0
        return True

    def _drop_handle(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def close(self) -> None:
        self.sync()
        self._drop_handle()

    # -- replay ------------------------------------------------------------

    def replay(self) -> Iterator[Tuple[str, Any]]:
        """Yield every trustworthy entry in append order (see class doc)."""
        names = self.segments()
        for position, name in enumerate(names):
            path = os.path.join(self.directory, name)
            try:
                data = self.fs.read_bytes(path)
            except OSError as exc:
                self.status.note(f"wal segment {name} unreadable: {exc!r}")
                if position < len(names) - 1:
                    self.status.note(
                        f"wal replay stopped; {len(names) - position - 1} "
                        "later segments skipped (append order not provable)"
                    )
                return
            try:
                wire.check_header(data, wire.WAL_MAGIC)
            except wire.WireError as exc:
                payloads, clean_end, error = [], None, f"bad header: {exc}"
            else:
                payloads, clean_end, error = wire.scan_frames(data)
            if error is not None:
                # Repair before yielding, so a consumer that stops early
                # still leaves a journal that replays the same way.
                self._end_at(names[position:], clean_end, error)
            yield from self._decode(payloads, name)
            if error is not None:
                return

    def _end_at(
        self, names: List[str], clean_end: Optional[int], error: str
    ) -> None:
        """Make ``names[0]`` the journal's last segment: move the later
        ``names`` aside, then cut it back to ``clean_end`` (or move it
        aside too when ``clean_end`` is ``None``: a bad header)."""
        name, later = names[0], names[1:]
        for other in later:
            self._quarantine(other, f"follows {error} in {name}")
        if later:
            self.status.note(
                f"wal replay stopped at {name}; {len(later)} later "
                "segments skipped"
            )
        if clean_end is None:
            self._quarantine(name, error)
            return
        self.status.note(
            f"wal {'corrupt frame' if later else 'torn tail'} in {name}: "
            f"{error}; truncated to {clean_end} bytes"
        )
        try:
            self.fs.truncate(os.path.join(self.directory, name), clean_end)
        except OSError as exc:
            self.status.note(f"wal truncate failed on {name}: {exc!r}")

    def _decode(
        self, payloads: List[bytes], name: str
    ) -> Iterator[Tuple[str, Any]]:
        for payload in payloads:
            try:
                entry = wire.loads(payload, tuple)
                if len(entry) != 2 or not isinstance(entry[0], str):
                    raise wire.WireError("not a (kind, object) entry")
            except wire.WireError as exc:
                # CRC passed but the payload did not decode: corruption
                # the frame cannot see (a class that moved, a global
                # outside the state types).  Skip the entry, keep the note.
                self.status.note(f"wal entry in {name} dropped: {exc}")
                continue
            yield entry

    def _quarantine(self, name: str, why: str) -> None:
        path = os.path.join(self.directory, name)
        try:
            self.fs.replace(path, path + ".corrupt")
            self.status.note(f"wal segment {name} quarantined: {why}")
        except OSError as exc:
            self.status.note(
                f"wal segment {name} corrupt ({why}) and could not be "
                f"quarantined: {exc!r}"
            )

    def reset(self) -> None:
        """Drop every segment (a checkpoint now covers their contents)."""
        self._drop_handle()
        self._since_sync = 0
        for name in self.segments():
            try:
                self.fs.remove(os.path.join(self.directory, name))
            except OSError as exc:
                self.status.note(f"wal reset could not remove {name}: {exc!r}")
        self._next_segment = 0


# -- the state dir's alert copy ---------------------------------------------


class AlertCopy:
    """A state dir's copy of its run's alert lists, so that a generation
    on disk is a watermark, not a history.

    ``alerts.log`` is framed like the journal: a frame naming the run's
    token, then one frame per save, ``(seq, kept, rows, kept_at)``: the
    alerts the lists gained past lengths ``seq`` and ``kept``, as plain
    tuples (which pickle several times faster than the named ones), and
    the new filtered alerts as indices into those rows.
    :meth:`write` fsyncs the frame before the generation naming the new
    lengths is written, and :meth:`attach` reads the lists back on load.
    A copy ahead of the generation loaded (a save died between the two)
    needs no repair: the next frame starts at the loaded lengths, and a
    replay cuts the lists back to where each frame starts."""

    NAME = "alerts.log"

    def __init__(self, directory: str, token: str, fs: RealFilesystem):
        self.path = os.path.join(directory, self.NAME)
        self.token = token
        self.fs = fs
        #: The list lengths the copy holds, and its trusted byte length
        #: (``None``: the next write starts the file over).
        self.mark: Tuple[int, int] = (0, 0)
        self.end: Optional[int] = None

    def attach(self, checkpoint: Any) -> Any:
        """A loaded checkpoint with its alert lists attached from the
        copy; :class:`~repro.resilience.wire.WireError` (or ``OSError``)
        when the copy cannot serve its watermark."""
        if not isinstance(checkpoint, PipelineCheckpoint) or \
                checkpoint.in_store:
            return checkpoint
        if checkpoint.store_state is None:  # older state, alerts and all
            raw, filtered = (list(vars(checkpoint).get(name, ()))
                             for name in ("raw_alerts", "filtered_alerts"))
            self.mark, self.end = (0, 0), None
            return dc_replace(
                checkpoint, alert_log=(raw, filtered),
                store_state={"seq": len(raw), "kept": len(filtered)},
            )
        seq, kept = checkpoint.watermark(store=False)
        data = self.fs.read_bytes(self.path)
        wire.check_header(data, wire.WAL_MAGIC)
        # Bytes past ``end`` (a torn tail) go at the next write.
        payloads, end, _error = wire.scan_frames(data)
        if not payloads or wire.loads(payloads[0], str) != self.token:
            raise wire.WireError("alert copy belongs to another run")
        raw: List[Any] = []
        filtered: List[Any] = []
        for payload in payloads[1:]:
            if len(raw) >= seq:
                break
            try:
                at, at_kept, rows, kept_at = wire.loads(payload, tuple)
                new = [Alert(*row[:4], LogRecord(*row[4])) for row in rows]
                new_kept = [new[i] for i in kept_at]
            except Exception as exc:  # a damaged frame raises many types
                raise wire.WireError(f"alert copy frame: {exc!r}") from exc
            if at > len(raw) or at_kept > len(filtered):
                raise wire.WireError(f"alert copy skips from {len(raw)} "
                                     f"to {at}")
            raw[at:], filtered[at_kept:] = new, new_kept
        if len(raw) < seq or len(filtered) < kept:
            raise wire.WireError(f"alert copy holds {len(raw)} of the "
                                 f"{seq} alerts its checkpoint names")
        del raw[seq:], filtered[kept:]
        self.mark, self.end = (seq, kept), end
        return dc_replace(checkpoint, alert_log=(raw, filtered))

    def write(self, checkpoint: PipelineCheckpoint) -> None:
        """Append, fsynced, the alerts ``checkpoint`` names that the
        copy lacks; ``OSError`` when the disk refuses them."""
        raw, filtered = checkpoint.alert_log
        seq, kept = checkpoint.watermark(store=False)
        new = raw[self.mark[0]:seq]
        # A filtered alert is the very object its raw entry is.
        index = {id(alert): i for i, alert in enumerate(new)}
        frame = wire.dumps((
            *self.mark, [(*alert[:4], tuple(alert.record)) for alert in new],
            [index[id(alert)] for alert in filtered[self.mark[1]:kept]],
        ))
        if self.end is None:
            head = wire.file_header(wire.WAL_MAGIC) + wire.dumps(self.token)
            self.fs.write_bytes(self.path, head + frame)
            self.fs.fsync_dir(os.path.dirname(self.path))  # its name
            self.end = len(head)
        else:
            # From the trusted length: a failed append's torn bytes go.
            self.fs.truncate(self.path, self.end)
            handle = self.fs.open_append(self.path)
            try:
                handle.write(frame)
                handle.sync()
            finally:
                handle.close()
        self.mark, self.end = (seq, kept), self.end + len(frame)


# -- the checkpoint store ----------------------------------------------------


class CheckpointStore:
    """Atomic, generational persistence for full-state snapshots.

    Layout inside ``directory``::

        MANIFEST            -> newest generation (framed, CRC-protected)
        gen-00000007.ckpt   -> {"meta": ..., "checkpoint": payload}
        gen-00000006.ckpt   -> previous generation (fallback)
        gen-00000005.ckpt.corrupt   -> quarantined by a failed load
        alerts.log          -> the alert copy the generations' seqs name

    :meth:`save` writes the new generation to a dot-prefixed temp file,
    fsyncs, ``os.replace``\\ s it into place, then updates MANIFEST the
    same way — a crash at any instruction leaves either the old state
    or the new state fully intact, never a half state.  :meth:`load`
    tries the generations on disk newest first (the manifest's ``file``
    field is not consulted) and quarantines each corrupt one as it goes.

    ``token`` fingerprints the run configuration (system, seed, scale,
    ...): state recorded under a different token is ignored rather than
    resumed into the wrong stream.  A payload is any state object the
    codec carries; :meth:`load` names the type it expects (a
    ``PipelineCheckpoint`` for a batch run, a ``ParkedTenant`` for the
    service) and quarantines a generation that holds anything else.
    A pipeline checkpoint's in-memory alert lists go to the
    :class:`AlertCopy` in ``alerts.log``; a generation its copy cannot
    serve is quarantined on load.
    """

    MANIFEST = "MANIFEST"
    GENERATION_TEMPLATE = "gen-{:08d}.ckpt"

    def __init__(
        self,
        directory: str,
        token: str = "",
        keep: int = 2,
        fs: Optional[RealFilesystem] = None,
        status: Optional[DurabilityStatus] = None,
    ):
        if keep < 1:
            raise ValueError("keep must be at least 1 generation")
        self.directory = str(directory)
        self.token = token
        self.keep = keep
        self.fs = fs if fs is not None else RealFilesystem()
        self.status = status if status is not None else DurabilityStatus()
        self.generation = self._newest_generation()
        self.saved = 0
        self.alert_copy = AlertCopy(self.directory, token, self.fs)

    # -- naming ------------------------------------------------------------

    def _generation_name(self, generation: int) -> str:
        return self.GENERATION_TEMPLATE.format(generation)

    def _generation_index(self, name: str) -> Optional[int]:
        if not (name.startswith("gen-") and name.endswith(".ckpt")):
            return None
        digits = name[len("gen-"):-len(".ckpt")]
        return int(digits) if digits.isdigit() else None

    def _generations_on_disk(self) -> List[int]:
        if not self.fs.exists(self.directory):
            return []
        return sorted(
            index
            for name in self.fs.listdir(self.directory)
            if (index := self._generation_index(name)) is not None
        )

    def _newest_generation(self) -> int:
        found = self._generations_on_disk()
        return found[-1] if found else 0

    # -- saving ------------------------------------------------------------

    def save(self, payload: Any) -> bool:
        """Persist one generation atomically; ``True`` on success.

        Failure latches degraded mode and counts the checkpoint as
        unpersisted; the caller's in-memory copy stays authoritative.
        """
        generation = self.generation + 1
        meta = {"token": self.token, "generation": generation}
        try:
            blob = wire.dump_file(
                wire.CHECKPOINT_MAGIC, {"meta": meta, "checkpoint": payload}
            )
        except Exception as exc:
            self.status.latch("checkpoint encode", exc)
            self.status.unpersisted_checkpoints += 1
            return False
        try:
            self.fs.ensure_dir(self.directory)
            if getattr(payload, "alert_log", None) is not None:
                self.alert_copy.write(payload)  # what the generation names
            self.fs.atomic_write(
                os.path.join(self.directory, self._generation_name(generation)),
                blob,
            )
            self._write_manifest(generation, complete=False)
            self.fs.fsync_dir(self.directory)
        except OSError as exc:
            self.status.latch("checkpoint save", exc)
            self.status.unpersisted_checkpoints += 1
            return False
        self.generation = generation
        self.saved += 1
        self._prune(self.keep)
        return True

    def _write_manifest(self, generation: int, complete: bool) -> None:
        self.fs.atomic_write(
            os.path.join(self.directory, self.MANIFEST),
            wire.dump_file(wire.CHECKPOINT_MAGIC, {
                "token": self.token, "generation": generation,
                "file": self._generation_name(generation),
                "complete": complete,
            }),
        )

    def _prune(self, keep: int) -> None:
        """Remove all but the newest ``keep`` generations (none: and the
        alert copy)."""
        found = self._generations_on_disk()
        doomed = [
            os.path.join(self.directory, self._generation_name(generation))
            for generation in found[:len(found) - keep]
        ]
        if not keep and self.fs.exists(self.alert_copy.path):
            doomed.append(self.alert_copy.path)
        for path in doomed:
            try:
                self.fs.remove(path)
            except OSError as exc:
                self.status.note(f"could not prune {path}: {exc!r}")

    def mark_complete(self) -> bool:
        """Record that the run this state belongs to finished cleanly;
        the next :meth:`load` reports nothing to resume and removes this
        run's generations and alert copy (until then they stay
        readable)."""
        try:
            self.fs.ensure_dir(self.directory)
            self._write_manifest(self.generation, complete=True)
        except OSError as exc:
            self.status.latch("checkpoint mark-complete", exc)
            return False
        return True

    # -- loading -----------------------------------------------------------

    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        path = os.path.join(self.directory, self.MANIFEST)
        try:
            if not self.fs.exists(path):
                return None
            return wire.load_file(
                self.fs.read_bytes(path), wire.CHECKPOINT_MAGIC, dict
            )
        except (OSError, wire.WireError) as exc:
            self.status.note(f"manifest unreadable ({exc!r}); "
                             "falling back to a directory scan")
            return None

    def load(self, expect: type) -> Optional[Any]:
        """The newest verifiable ``expect``-typed payload, or ``None``
        (fresh start).

        Wrong-token state is ignored; corrupt generations — including one
        whose payload is not an ``expect`` — are renamed ``*.corrupt``
        and the previous generation is tried: exactly the fallback the
        manifest's ``keep`` window exists for.
        """
        # What the copy holds is known again once a generation is loaded.
        self.alert_copy = AlertCopy(self.directory, self.token, self.fs)
        manifest = self._read_manifest()
        if manifest is not None and manifest.get("token") != self.token:
            self.status.note(
                "state belongs to a different run configuration "
                f"(token {manifest.get('token')!r}); starting fresh"
            )
            return None
        if manifest is not None and manifest.get("complete"):
            # The finished run's generations go with it: a later run that
            # dies before saving, over a damaged MANIFEST, must not resume
            # them into a store it has already started over.
            self._prune(0)
            return None
        candidates = self._generations_on_disk()[::-1]  # newest first
        for generation in candidates:
            name = self._generation_name(generation)
            path = os.path.join(self.directory, name)
            try:
                meta, payload = self._unwrap(
                    wire.load_file(
                        self.fs.read_bytes(path), wire.CHECKPOINT_MAGIC, dict
                    ),
                    expect,
                )
                if meta.get("token") == self.token:
                    payload = self.alert_copy.attach(payload)
            except (OSError, wire.WireError) as exc:
                self._quarantine(name, exc)
                continue
            if meta.get("token") != self.token:
                self.status.note(
                    f"generation {generation} belongs to a different run "
                    "configuration; ignored"
                )
                continue
            self.generation = max(self.generation, generation)
            return payload
        return None

    @staticmethod
    def _unwrap(
        wrapper: Dict[str, Any], expect: type
    ) -> Tuple[Dict[str, Any], Any]:
        """A generation's ``(meta, payload)``; :class:`wire.WireError`
        unless the wrapper has both and the payload is an ``expect``."""
        # Service generations written before the one codec named their
        # payload "parked".
        key = "checkpoint" if "checkpoint" in wrapper else "parked"
        meta = wrapper.get("meta")
        if not isinstance(meta, dict) or key not in wrapper:
            raise wire.WireError("not a {meta, checkpoint} generation")
        payload = wrapper[key]
        if not isinstance(payload, expect):
            raise wire.WireError(
                f"generation holds {type(payload).__name__}, "
                f"not {expect.__name__}"
            )
        return meta, payload

    def _quarantine(self, name: str, why: BaseException) -> None:
        path = os.path.join(self.directory, name)
        try:
            self.fs.replace(path, path + ".corrupt")
            self.status.note(f"generation {name} quarantined: {why}")
        except OSError as exc:
            self.status.note(
                f"generation {name} corrupt ({why}) and could not be "
                f"quarantined: {exc!r}"
            )
