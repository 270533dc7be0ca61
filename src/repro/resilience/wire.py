"""The durable on-disk format: CRC32-framed records and file headers.

Everything the durability layer persists — write-ahead journal entries
and checkpoint generations — goes through one framing::

    +----------+----------+====================+
    | crc32    | length   | payload            |
    | 4 bytes  | 4 bytes  | ``length`` bytes   |
    +----------+----------+====================+

Both header fields are little-endian unsigned 32-bit; the CRC covers the
payload only.  A file is a fixed 6-byte header (4-byte magic + 2-byte
format version) followed by zero or more frames.  The framing makes
every corruption mode *detectable*: a torn tail (the process died
mid-write) shows up as a short or CRC-failing final frame, and bit-rot
anywhere shows up as a CRC mismatch.  Policy — truncate the tail,
quarantine the file, fall back a generation — lives in
:mod:`repro.resilience.durability`; this module only encodes, decodes,
and reports exactly where the bytes stopped being trustworthy.

Checkpoint payloads are pickled :class:`PipelineCheckpoint` objects with
one transformation: the live zlib compressor inside ``StatsSnapshot``
cannot be pickled, so the durable form stores ``compressor=None`` and
relies on the snapshot's ``fed_bytes`` watermark —
:meth:`repro.logio.stats.StatsCollector.from_snapshot` rebuilds the
compressor state by replaying the resumed stream's prefix (see
``replay_record``), which deflate's chunking-invariant output makes
byte-exact.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from .checkpoint import PipelineCheckpoint

#: File magics: the journal and the checkpoint store refuse each other's
#: files (and anything else) instead of misparsing them.
WAL_MAGIC = b"RWAL"
CHECKPOINT_MAGIC = b"RCKP"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sH")  # magic, version
_FRAME = struct.Struct("<II")  # crc32(payload), len(payload)

#: Refuse absurd frame lengths outright: a length field this large is
#: corruption, not data, and honoring it would make the scanner try to
#: slurp garbage gigabytes before the CRC check could reject them.
MAX_FRAME_PAYLOAD = 256 * 1024 * 1024

HEADER_SIZE = _HEADER.size
FRAME_HEADER_SIZE = _FRAME.size


class WireError(ValueError):
    """A file or frame that cannot be decoded (wrong magic, bad version,
    unpicklable payload)."""


def file_header(magic: bytes) -> bytes:
    """The 6-byte header that starts every durable file."""
    return _HEADER.pack(magic, FORMAT_VERSION)


def check_header(data: bytes, magic: bytes) -> None:
    """Validate a file's header; raise :class:`WireError` otherwise."""
    if len(data) < HEADER_SIZE:
        raise WireError(f"file shorter than its {HEADER_SIZE}-byte header")
    found_magic, version = _HEADER.unpack_from(data)
    if found_magic != magic:
        raise WireError(f"bad magic {found_magic!r} (expected {magic!r})")
    if version != FORMAT_VERSION:
        raise WireError(f"unsupported format version {version}")


def encode_frame(payload: bytes) -> bytes:
    """One CRC32-protected frame around ``payload``."""
    return _FRAME.pack(zlib.crc32(payload) & 0xFFFFFFFF, len(payload)) + payload


def scan_frames(
    data: bytes, offset: int = HEADER_SIZE
) -> Tuple[List[bytes], int, Optional[str]]:
    """Walk frames from ``offset``; stop at the first untrustworthy byte.

    Returns ``(payloads, clean_end, error)``: every payload whose CRC
    verified, the byte offset just past the last good frame, and ``None``
    if the scan consumed the file exactly — otherwise a human-readable
    reason ("torn frame header", "torn payload", "crc mismatch", ...)
    for why the bytes from ``clean_end`` onward cannot be trusted.  The
    caller decides whether that means a torn tail to truncate or a
    corrupt file to quarantine.
    """
    payloads: List[bytes] = []
    end = len(data)
    while offset < end:
        if end - offset < FRAME_HEADER_SIZE:
            return payloads, offset, (
                f"torn frame header ({end - offset} bytes at offset {offset})"
            )
        crc, length = _FRAME.unpack_from(data, offset)
        if length > MAX_FRAME_PAYLOAD:
            return payloads, offset, (
                f"implausible frame length {length} at offset {offset}"
            )
        start = offset + FRAME_HEADER_SIZE
        if end - start < length:
            return payloads, offset, (
                f"torn payload ({end - start} of {length} bytes "
                f"at offset {offset})"
            )
        payload = data[start:start + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return payloads, offset, f"crc mismatch at offset {offset}"
        payloads.append(payload)
        offset = start + length
    return payloads, offset, None


# -- journal entries ---------------------------------------------------------


def encode_entry(kind: str, obj: Any) -> bytes:
    """One journal entry: a ``(kind, obj)`` pair, pickled then framed."""
    return encode_frame(
        pickle.dumps((kind, obj), protocol=pickle.HIGHEST_PROTOCOL)
    )


def decode_entry(payload: bytes) -> Tuple[str, Any]:
    try:
        kind, obj = pickle.loads(payload)
    except Exception as exc:
        raise WireError(f"undecodable journal entry: {exc!r}") from exc
    if not isinstance(kind, str):
        raise WireError(f"journal entry kind is {type(kind).__name__}, "
                        "not str")
    return kind, obj


# -- checkpoint payloads -----------------------------------------------------


def durable_checkpoint(checkpoint: PipelineCheckpoint) -> PipelineCheckpoint:
    """The persistable twin of a checkpoint: identical except the live
    zlib compressor is dropped (it cannot cross a process boundary); the
    ``fed_bytes`` watermark it leaves behind is what resume uses to
    rebuild the compressor by prefix replay."""
    stats = checkpoint.stats
    if stats.compressor is None:
        return checkpoint
    return replace(
        checkpoint,
        stats=replace(stats, stats=replace(stats.stats), compressor=None),
    )


def encode_checkpoint(
    checkpoint: PipelineCheckpoint, meta: Optional[Dict[str, Any]] = None
) -> bytes:
    """Frame a checkpoint (plus a small metadata dict) for disk."""
    return encode_frame(pickle.dumps(
        {"meta": dict(meta or {}), "checkpoint": durable_checkpoint(checkpoint)},
        protocol=pickle.HIGHEST_PROTOCOL,
    ))


def decode_checkpoint(
    payload: bytes,
) -> Tuple[PipelineCheckpoint, Dict[str, Any]]:
    try:
        wrapper = pickle.loads(payload)
        checkpoint = wrapper["checkpoint"]
        meta = wrapper["meta"]
    except Exception as exc:
        raise WireError(f"undecodable checkpoint payload: {exc!r}") from exc
    if not isinstance(checkpoint, PipelineCheckpoint):
        raise WireError(
            f"checkpoint payload holds {type(checkpoint).__name__}, "
            "not PipelineCheckpoint"
        )
    return checkpoint, dict(meta)


# -- manifests ---------------------------------------------------------------


def encode_manifest(fields: Dict[str, Any]) -> bytes:
    """A whole manifest file: header + one framed, pickled dict."""
    return file_header(CHECKPOINT_MAGIC) + encode_frame(
        pickle.dumps(dict(fields), protocol=pickle.HIGHEST_PROTOCOL)
    )


def decode_manifest(data: bytes) -> Dict[str, Any]:
    check_header(data, CHECKPOINT_MAGIC)
    payloads, _end, error = scan_frames(data)
    if error is not None or len(payloads) != 1:
        raise WireError(error or f"manifest holds {len(payloads)} frames")
    try:
        fields = pickle.loads(payloads[0])
    except Exception as exc:
        raise WireError(f"undecodable manifest: {exc!r}") from exc
    if not isinstance(fields, dict):
        raise WireError("manifest payload is not a dict")
    return fields
