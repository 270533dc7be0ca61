"""The spill-to-disk columnar alert store: incremental writer + reader.

The writer is fed by the engine sink one alert at a time (or a batch at
a time), buffers rows per partition, and makes them durable only at
**commit barriers** — the same points where the pipeline checkpoints.
The invariants that make crash/resume exact:

* every committed page lies entirely inside one inter-commit interval
  (open pages are sealed at :meth:`ColumnarStoreWriter.commit`), so a
  checkpoint watermark never splits a page;
* the manifest records, per partition, the committed byte length —
  anything past it (a crash between commits) is a torn tail to truncate,
  never data to trust;
* the manifest itself is replaced atomically, so the store always
  describes some barrier-consistent state.

On resume the writer cuts each partition back to pages whose rows all
precede the checkpoint's sequence watermark; the re-run stream then
re-emits exactly the dropped suffix.  ``state_dir`` resume therefore
never double-writes a partition.

Every byte goes through the filesystem seam ``fs``, so a
:class:`~repro.resilience.faults.FaultyFilesystem` can tear a page
append, fill the disk or kill the process inside a store write.

The reader (:class:`ColumnarStore`) exposes bounded-memory scans: one
decoded page per partition is alive at a time, and cross-partition
iteration is a k-way merge on the global sequence number, which
reconstructs exact emit order even when the reorder tolerance lets an
alert cross an hour boundary backwards.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..core.categories import Alert, AlertType
from ..logmodel.record import LogRecord
from ..resilience import wire
from ..resilience.durability import RealFilesystem
from .format import (
    COLUMN_MAGIC,
    MANIFEST_NAME,
    PAGE_ROWS,
    PARTS_DIR,
    PageColumns,
    STORE_FORMAT,
    SUMMARY_NAME,
    StoreFormatError,
    decode_page,
    encode_page,
    partition_hour,
    partition_relpath,
)


class StoreError(RuntimeError):
    """The store cannot satisfy a request (bad resume watermark, absent
    summary, incompatible format)."""


def _read_fields(fs: RealFilesystem, path: str,
                 what: str) -> Optional[Dict[str, Any]]:
    """A store file's fields; ``None`` if absent."""
    try:
        return wire.load_file(fs.read_bytes(path), COLUMN_MAGIC, dict)
    except FileNotFoundError:
        return None
    except wire.WireError as exc:
        raise StoreError(f"corrupt {what} at {path!r}: {exc}")


def _read_manifest(fs: RealFilesystem, root: str) -> Optional[Dict[str, Any]]:
    """The store MANIFEST's fields, format-checked; ``None`` if absent."""
    fields = _read_fields(fs, os.path.join(root, MANIFEST_NAME),
                          "store manifest")
    if fields is not None and fields.get("store_format") != STORE_FORMAT:
        raise StoreError(
            f"unsupported store format {fields.get('store_format')!r}"
        )
    return fields


@dataclass
class PartitionMeta:
    """Committed state of one ``(category, hour)`` partition."""

    category: str
    hour: int
    path: str  # relative to the store root
    bytes: int  # committed file length (anything beyond is torn tail)
    rows: int
    kept: int
    alert_type: str  # one-letter paper code
    ts_min: float
    ts_max: float
    kept_ts_min: Optional[float]
    kept_ts_max: Optional[float]

    def to_fields(self) -> Dict[str, Any]:
        return dict(vars(self))

    @classmethod
    def from_fields(cls, fields: Dict[str, Any]) -> "PartitionMeta":
        return cls(**{f.name: fields[f.name] for f in dataclasses.fields(cls)})

    def add_page(self, page: PageColumns, frame_bytes: int) -> None:
        """Account one committed page, ``frame_bytes`` long on disk."""
        self.bytes += frame_bytes
        self.rows += len(page)
        self.kept += int(page.kept.sum())
        self.ts_min = min(self.ts_min, float(page.timestamps.min()))
        self.ts_max = max(self.ts_max, float(page.timestamps.max()))
        kept = page.timestamps[page.kept.astype(bool)]
        if kept.size:
            lo, hi = float(kept.min()), float(kept.max())
            if self.kept_ts_min is None:
                self.kept_ts_min, self.kept_ts_max = lo, hi
            else:
                self.kept_ts_min = min(self.kept_ts_min, lo)
                self.kept_ts_max = max(self.kept_ts_max, hi)


#: The row accounting of a partition that holds no page yet.
_NO_ROWS = dict(rows=0, kept=0, ts_min=np.inf, ts_max=-np.inf,
                kept_ts_min=None, kept_ts_max=None)


def _committed_frames(
    fs: RealFilesystem, root: str, meta: PartitionMeta
) -> Tuple[List[bytes], Optional[str]]:
    """The page payloads in a partition's committed bytes, and what is
    wrong with those bytes (``None`` when nothing is)."""
    try:
        data = fs.read_bytes(os.path.join(root, meta.path))[:meta.bytes]
    except FileNotFoundError:
        return [], f"missing partition file {meta.path}"
    try:
        wire.check_header(data, COLUMN_MAGIC)
    except wire.WireError as exc:
        return [], f"{meta.path}: {exc}"
    payloads, _clean_end, error = wire.scan_frames(data)
    return payloads, None if error is None else f"{meta.path}: {error}"


class _PageBuffer:
    """Rows accumulated for one partition since its last sealed page."""

    __slots__ = ("seqs", "timestamps", "kept", "source_ids", "severity_ids",
                 "sources", "source_index", "severities", "severity_index")

    def __init__(self) -> None:
        self.seqs: List[int] = []
        self.timestamps: List[float] = []
        self.kept: List[int] = []
        self.source_ids: List[int] = []
        self.severity_ids: List[int] = []
        self.sources: List[str] = []
        self.source_index: Dict[str, int] = {}
        self.severities: List[str] = []
        self.severity_index: Dict[str, int] = {}

    def add(self, seq: int, timestamp: float, source: str,
            severity: Optional[str], kept: bool) -> None:
        sid = self.source_index.get(source)
        if sid is None:
            sid = self.source_index[source] = len(self.sources)
            self.sources.append(source)
        if severity is None:
            vid = 0
        else:
            vid = self.severity_index.get(severity)
            if vid is None:
                vid = self.severity_index[severity] = len(self.severities) + 1
                self.severities.append(severity)
        self.seqs.append(seq)
        self.timestamps.append(timestamp)
        self.kept.append(1 if kept else 0)
        self.source_ids.append(sid)
        self.severity_ids.append(vid)

    def __len__(self) -> int:
        return len(self.seqs)

    def seal(self) -> bytes:
        first = self.seqs[0]
        offsets = np.asarray(self.seqs, dtype=np.uint64) - first
        if offsets.size and int(offsets[-1]) > 0xFFFFFFFF:
            raise StoreFormatError("page spans more than 2**32 sequence ids")
        return encode_page(
            first_seq=first,
            seq_offsets=offsets.astype(np.uint32),
            timestamps=np.asarray(self.timestamps, dtype=np.float64),
            kept=np.asarray(self.kept, dtype=np.uint8),
            source_ids=np.asarray(self.source_ids, dtype=np.uint16),
            severity_ids=np.asarray(self.severity_ids, dtype=np.uint16),
            source_dict=self.sources,
            severity_dict=self.severities,
        )


class _WriterPartition:
    """Writer-side bookkeeping for one partition."""

    __slots__ = ("meta", "buffer", "pending")

    def __init__(self, meta: PartitionMeta) -> None:
        self.meta = meta
        self.buffer = _PageBuffer()
        self.pending: List[bytes] = []  # sealed, uncommitted page payloads


class ColumnarStoreWriter:
    """Incremental writer for one system's columnar store.

    Lifecycle: construct, :meth:`begin` (fresh / resume / append mode),
    feed via :meth:`append` / :meth:`append_batch`, make durable at
    every barrier via :meth:`commit`, and :meth:`finalize` when the run
    completes.  Between barriers nothing is promised: a crash loses at
    most the rows since the last commit — exactly the rows the resumed
    pipeline re-emits.
    """

    def __init__(self, root: str, system: str, *,
                 page_rows: int = PAGE_ROWS,
                 autoflush_rows: int = 16 * PAGE_ROWS,
                 fs: Optional[RealFilesystem] = None) -> None:
        self.root = root
        self.system = system
        self.fs = fs if fs is not None else RealFilesystem()
        self.page_rows = page_rows
        #: Commit on our own every this many buffered rows, between the
        #: caller's barriers (or with none at all), so memory stays
        #: bounded whatever the checkpoint cadence.
        self.autoflush_rows = autoflush_rows
        self.seq = 0
        self._buffered_rows = 0
        self._partitions: Dict[Tuple[str, int], _WriterPartition] = {}
        self._began = False

    # -- lifecycle -------------------------------------------------------

    def begin(self, resume_seq: Optional[int] = 0) -> int:
        """Open the store for writing and return the starting sequence.

        ``resume_seq=0`` starts fresh (any prior store content at this
        root is discarded).  A positive watermark resumes a checkpointed
        run: every committed page whose rows all precede the watermark
        survives, everything else is dropped, and the watermark
        becomes the next sequence number.  ``None`` appends after
        whatever the manifest committed (the service's journal-resume
        mode, where the manifest seq *is* the authority).
        """
        if self._began:
            raise StoreError("writer already begun")
        self.fs.ensure_dir(self.root)
        manifest = _read_manifest(self.fs, self.root)
        if manifest is not None and manifest.get("system") != self.system:
            raise StoreError(
                f"store at {self.root!r} holds system "
                f"{manifest.get('system')!r}, not {self.system!r}"
            )
        if resume_seq == 0 or manifest is None:
            if resume_seq not in (0, None) and manifest is None:
                raise StoreError(
                    f"resume watermark {resume_seq} but no store manifest "
                    f"at {self.root!r}"
                )
            # The MANIFEST goes first: a crash mid-wipe leaves no store,
            # never a manifest naming removed files.
            self._remove(MANIFEST_NAME, SUMMARY_NAME)
            self._remove_unnamed()
            self.seq = 0
        else:
            watermark = manifest["seq"] if resume_seq is None else resume_seq
            if watermark > manifest["seq"]:
                # The checkpoint is ahead of the manifest: a commit
                # must precede its checkpoint save, so this store does
                # not belong to that checkpoint's run.
                raise StoreError(
                    f"resume watermark {watermark} exceeds committed "
                    f"store seq {manifest['seq']}"
                )
            # _adopt rewrites the manifest: it must already carry the
            # watermark, or a crash before the next commit leaves a
            # manifest at seq 0 that no checkpoint can resume into.
            self.seq = watermark
            self._adopt(manifest, watermark)
        self._began = True
        return self.seq

    def _adopt(self, manifest: Dict[str, Any], watermark: int) -> None:
        """Resume from a committed manifest, dropping rows >= watermark.

        The new manifest lands before any column file changes, so a
        crash at any point leaves a store the same watermark resumes:
        bytes past a partition's committed length are a torn tail the
        next commit clips, and files the manifest does not name are
        removed after it."""
        # A resumed run is no longer complete; drop any stale summary.
        self._remove(SUMMARY_NAME)
        for fields in manifest["partitions"]:
            committed = PartitionMeta.from_fields(fields)
            payloads, problem = _committed_frames(self.fs, self.root, committed)
            if problem is not None:
                raise StoreError(
                    f"committed bytes of partition {committed.path!r} are "
                    f"corrupt: {problem}"
                )
            meta = dataclasses.replace(
                committed, bytes=wire.HEADER_SIZE, **_NO_ROWS
            )
            for payload in payloads:
                page = decode_page(payload)
                if page.first_seq >= watermark:
                    break
                if page.last_seq >= watermark:
                    # Cannot happen for stores written by this class
                    # (pages seal at barriers); refuse rather than lose
                    # rows the resumed run will not re-emit.
                    raise StoreError(
                        f"checkpoint watermark {watermark} splits a "
                        f"committed page in {meta.path!r}"
                    )
                meta.add_page(page, wire.FRAME_HEADER_SIZE + len(payload))
            if meta.rows:
                self._partitions[(meta.category, meta.hour)] = (
                    _WriterPartition(meta)
                )
        self._write_manifest(complete=False)
        self._remove_unnamed()

    def _remove(self, *names: str) -> None:
        for name in names:
            path = os.path.join(self.root, name)
            if self.fs.exists(path):
                self.fs.remove(path)

    def _remove_unnamed(self) -> None:
        """Remove every column file no partition in memory names."""
        named = {os.path.join(self.root, part.meta.path)
                 for part in self._partitions.values()}
        for path in self.fs.files_under(os.path.join(self.root, PARTS_DIR)):
            if path not in named:
                self.fs.remove(path)

    # -- ingest ----------------------------------------------------------

    def append(self, alert: Alert, kept: bool) -> None:
        """Buffer one alert in emit order; durable at the next commit."""
        key = (alert.category, partition_hour(alert.timestamp))
        part = self._partitions.get(key)
        if part is None:
            meta = PartitionMeta(
                category=alert.category,
                hour=key[1],
                path=partition_relpath(alert.category, key[1]),
                bytes=0,
                alert_type=alert.alert_type.value,
                **_NO_ROWS,
            )
            part = self._partitions[key] = _WriterPartition(meta)
        part.buffer.add(
            self.seq, alert.timestamp, alert.source,
            alert.record.severity, kept,
        )
        self.seq += 1
        self._buffered_rows += 1
        if len(part.buffer) >= self.page_rows:
            part.pending.append(part.buffer.seal())
            part.buffer = _PageBuffer()
        if self._buffered_rows >= self.autoflush_rows:
            self.commit()

    def append_batch(self, pairs: Iterable[Tuple[Alert, bool]]) -> None:
        for alert, kept in pairs:
            self.append(alert, kept)

    # -- durability ------------------------------------------------------

    def commit(self) -> int:
        """Seal open pages, append them to partition files, atomically
        replace the manifest.  Returns the committed sequence watermark
        (every row with seq < return value is now durable)."""
        for part in self._partitions.values():
            if len(part.buffer):
                part.pending.append(part.buffer.seal())
                part.buffer = _PageBuffer()
            if not part.pending:
                continue
            meta = part.meta
            path = os.path.join(self.root, meta.path)
            frames = b"".join(map(wire.encode_frame, part.pending))
            if meta.bytes == 0:
                self.fs.ensure_dir(os.path.dirname(path))
                self.fs.write_bytes(
                    path, wire.file_header(COLUMN_MAGIC) + frames, sync=False
                )
                meta.bytes = wire.HEADER_SIZE
            else:
                # Starting at the committed length clips any torn tail a
                # crash between commits left, so committed bytes stay
                # contiguous.
                self.fs.append_at(path, meta.bytes, frames)
            for payload in part.pending:
                meta.add_page(decode_page(payload),
                              wire.FRAME_HEADER_SIZE + len(payload))
            part.pending = []
        self._buffered_rows = 0
        self._write_manifest(complete=False)
        return self.seq

    def _write_manifest(self, *, complete: bool) -> None:
        fields = {
            "store_format": STORE_FORMAT,
            "system": self.system,
            "seq": self.seq,
            "complete": complete,
            "partitions": [
                part.meta.to_fields()
                for _key, part in sorted(self._partitions.items())
                if part.meta.rows > 0
            ],
        }
        self.fs.atomic_write(os.path.join(self.root, MANIFEST_NAME),
                             wire.dump_file(COLUMN_MAGIC, fields), sync=False)

    def finalize(self, summary: Optional[Dict[str, Any]] = None) -> None:
        """Commit outstanding rows, persist the run summary (the
        non-alert halves of a ``PipelineResult``), and mark the manifest
        complete so ``repro report`` accepts the store."""
        self.commit()
        if summary is not None:
            fields = dict(summary)
            fields.setdefault("system", self.system)
            fields["store_format"] = STORE_FORMAT
            self.fs.atomic_write(os.path.join(self.root, SUMMARY_NAME),
                                 wire.dump_file(COLUMN_MAGIC, fields),
                                 sync=False)
        self._write_manifest(complete=True)

    def reader(self) -> "ColumnarStore":
        """A reader over this store's committed state."""
        return ColumnarStore(self.root, fs=self.fs)


# -- reader ------------------------------------------------------------------


class Partition:
    """Reader-side view of one committed partition."""

    __slots__ = ("store", "meta")

    def __init__(self, store: "ColumnarStore", meta: PartitionMeta) -> None:
        self.store = store
        self.meta = meta

    def pages(self) -> Iterator[PageColumns]:
        """Decode committed pages one at a time (bounded memory)."""
        payloads, problem = _committed_frames(
            self.store.fs, self.store.root, self.meta
        )
        if problem is not None:
            self.store.degraded.append(problem)
        for payload in payloads:
            try:
                yield decode_page(payload)
            except StoreFormatError as exc:
                self.store.degraded.append(f"{self.meta.path}: {exc}")
                return

    def rows(self, kept_only: bool = False) -> Iterator[Tuple[int, float, str,
                                                              Optional[str], bool]]:
        """Yield ``(seq, timestamp, source, severity, kept)`` in seq order."""
        for page in self.pages():
            seqs = page.seqs
            timestamps = page.timestamps
            kept = page.kept
            for i in range(len(page)):
                is_kept = bool(kept[i])
                if kept_only and not is_kept:
                    continue
                yield (int(seqs[i]), float(timestamps[i]), page.source_at(i),
                       page.severity_at(i), is_kept)


class ColumnarStore:
    """Read access to a committed columnar store.

    Corruption degrades instead of crashing: unreadable frames, torn
    tails, and missing files drop the affected rows and record a reason
    in :attr:`degraded`; everything the CRCs vouch for stays queryable.
    """

    def __init__(self, root: str, fs: Optional[RealFilesystem] = None) -> None:
        self.root = root
        self.fs = fs if fs is not None else RealFilesystem()
        self.degraded: List[str] = []
        fields = _read_manifest(self.fs, root)
        if fields is None:
            raise StoreError(f"no columnar store at {root!r} (missing MANIFEST)")
        self.system: str = fields["system"]
        self.committed_seq: int = fields["seq"]
        self.complete: bool = bool(fields.get("complete"))
        self.partitions: List[Partition] = [
            Partition(self, PartitionMeta.from_fields(f))
            for f in fields["partitions"]
        ]

    # -- pushdown aggregates (no scan) -----------------------------------

    def _selected(self, categories=None) -> List[Partition]:
        if categories is None:
            return self.partitions
        wanted = set(categories)
        return [p for p in self.partitions if p.meta.category in wanted]

    def count(self, kept: Optional[bool] = None, categories=None) -> int:
        total = 0
        for part in self._selected(categories):
            if kept is None:
                total += part.meta.rows
            elif kept:
                total += part.meta.kept
            else:
                total += part.meta.rows - part.meta.kept
        return total

    def count_by_category(self, categories=None) -> Dict[str, Tuple[int, int]]:
        counts: Dict[str, Tuple[int, int]] = {}
        for part in self._selected(categories):
            raw, kept = counts.get(part.meta.category, (0, 0))
            counts[part.meta.category] = (raw + part.meta.rows,
                                          kept + part.meta.kept)
        return counts

    def count_by_type(self) -> Dict[AlertType, Tuple[int, int]]:
        counts: Dict[AlertType, Tuple[int, int]] = {}
        for part in self.partitions:
            alert_type = AlertType.from_code(part.meta.alert_type)
            raw, kept = counts.get(alert_type, (0, 0))
            counts[alert_type] = (raw + part.meta.rows, kept + part.meta.kept)
        return counts

    def categories(self, kept: Optional[bool] = None) -> set:
        out = set()
        for part in self.partitions:
            if kept is None or not kept:
                if part.meta.rows > 0:
                    out.add(part.meta.category)
            elif part.meta.kept > 0:
                out.add(part.meta.category)
        return out

    def time_bounds(self, kept: Optional[bool] = None,
                    categories=None) -> Optional[Tuple[float, float]]:
        lo = np.inf
        hi = -np.inf
        for part in self._selected(categories):
            if kept:
                if part.meta.kept_ts_min is None:
                    continue
                lo = min(lo, part.meta.kept_ts_min)
                hi = max(hi, part.meta.kept_ts_max)
            else:
                if part.meta.rows == 0:
                    continue
                lo = min(lo, part.meta.ts_min)
                hi = max(hi, part.meta.ts_max)
        if lo > hi:
            return None
        return float(lo), float(hi)

    def category_alert_type(self, category: str) -> Optional[AlertType]:
        for part in self.partitions:
            if part.meta.category == category:
                return AlertType.from_code(part.meta.alert_type)
        return None

    # -- scans -----------------------------------------------------------

    def iter_rows(self, kept: Optional[bool] = None, categories=None
                  ) -> Iterator[Tuple[int, float, str, Optional[str], bool,
                                      str, str]]:
        """Global-order scan: k-way merge of partition scans on seq.

        Yields ``(seq, timestamp, source, severity, kept, category,
        alert_type_code)``.  Holds one decoded page per selected
        partition — bounded memory however large the store is.
        """
        def stream(part: Partition):
            meta = part.meta
            for row in part.rows(kept_only=bool(kept)):
                yield row + (meta.category, meta.alert_type)

        merged = heapq.merge(
            *(stream(part) for part in self._selected(categories)),
            key=lambda row: row[0],
        )
        if kept is None or kept:
            yield from merged
        else:
            for row in merged:
                if not row[4]:
                    yield row

    def iter_alerts(self, kept: Optional[bool] = None,
                    categories=None) -> Iterator[Alert]:
        """Scan reconstructed :class:`Alert` objects in emit order.

        The attached :class:`LogRecord` is minimal — timestamp, source,
        system, severity — which is every record field the analytics
        layer reads (``Alert`` equality excludes the record entirely).
        """
        system = self.system
        for (seq, timestamp, source, severity, is_kept, category,
             type_code) in self.iter_rows(kept=kept, categories=categories):
            yield Alert(
                timestamp=timestamp,
                source=source,
                category=category,
                alert_type=AlertType.from_code(type_code),
                record=LogRecord(
                    timestamp=timestamp,
                    source=source,
                    facility="",
                    body="",
                    system=system,
                    severity=severity,
                ),
            )

    def category_timestamps(self, category: str,
                            kept: Optional[bool] = None) -> "np.ndarray":
        """All timestamps of one category in emit order (float64)."""
        chunks = []
        for (_seq, timestamp, *_rest) in self.iter_rows(
                kept=kept, categories=(category,)):
            chunks.append(timestamp)
        return np.asarray(chunks, dtype=np.float64)

    def timestamps(self, kept: Optional[bool] = None) -> "np.ndarray":
        """All selected timestamps in emit order (float64)."""
        return np.asarray(
            [row[1] for row in self.iter_rows(kept=kept)], dtype=np.float64
        )

    # -- run summary -----------------------------------------------------

    def load_summary(self) -> Dict[str, Any]:
        """The finalized run summary (stats, filter report, severity
        cross-tab...).  Raises :class:`StoreError` when the run never
        finalized — an incomplete store can be scanned but not replayed
        as a full ``PipelineResult``."""
        fields = _read_fields(self.fs, os.path.join(self.root, SUMMARY_NAME),
                              "run summary")
        if fields is None:
            raise StoreError(
                f"store at {self.root!r} has no run summary "
                "(run did not finalize)"
            )
        return fields


def is_store_dir(path: str) -> bool:
    """Whether ``path`` looks like a single-system columnar store."""
    return os.path.isfile(os.path.join(path, MANIFEST_NAME))
