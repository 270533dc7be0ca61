"""The durable on-disk format and its one codec.

Every byte under ``--state-dir`` and ``--store-dir`` that is not a store
column page goes through this module: write-ahead journal entries,
checkpoint generations, the checkpoint MANIFEST, a tenant's ``TENANT``
identity, and a store's MANIFEST and SUMMARY.  They share one framing::

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

The codec is two pairs: :func:`dumps`/:func:`loads` for one frame (a
journal entry) and :func:`dump_file`/:func:`load_file` for a header
plus exactly one frame (every other file).  A payload is a pickle, and
:func:`loads` unpickles it with :data:`STATE_TYPES` as the only globals
it may name, so a tampered or foreign file fails with
:class:`WireError` instead of running code.  The live zlib compressor
inside a :class:`~repro.logio.stats.StatsSnapshot` never reaches disk:
the snapshot's pickling hook drops it, and resume rebuilds it from the
``fed_bytes`` watermark.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from typing import Any, List, Optional, Tuple

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

#: The only globals a payload may name.  Pipeline checkpoints, parked
#: tenants, journal entries and store summaries are built from these
#: classes and from builtins (dict, list, tuple, str, int, float, bool,
#: None), which pickle encodes without naming a global: the set is what
#: ``pickletools`` shows in the committed state fixtures plus the
#: service's bundles.  A pickle can only call what it can name, so
#: refusing every other global is what keeps a hostile state dir or
#: store from running code on load.  A class that joins durable state
#: must be added here, or its files are refused as corrupt.
STATE_TYPES = frozenset({
    ("repro.analysis.severity_eval", "SeverityCrossTab"),
    ("repro.core.categories", "Alert"),
    ("repro.core.categories", "AlertType"),
    ("repro.core.filtering", "FilterReport"),
    ("repro.logio.stats", "LogStats"),
    ("repro.logio.stats", "StatsSnapshot"),
    ("repro.logmodel.record", "Channel"),
    ("repro.logmodel.record", "LogRecord"),
    ("repro.resilience.checkpoint", "PipelineCheckpoint"),
    ("repro.resilience.deadletter", "DeadLetter"),
    ("repro.resilience.deadletter", "DeadLetterSnapshot"),
    ("repro.service.accounting", "TenantCounters"),
    ("repro.service.tenant", "ParkedTenant"),
})


class WireError(ValueError):
    """A file or frame that cannot be decoded (wrong magic, bad version,
    unpicklable payload, a global outside :data:`STATE_TYPES`)."""


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


# -- the codec ---------------------------------------------------------------


class _StateUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in STATE_TYPES:
            raise WireError(f"payload names {module}.{name}, not a state type")
        return super().find_class(module, name)


def dumps(obj: Any) -> bytes:
    """One CRC32 frame around ``obj``, pickled."""
    return encode_frame(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def loads(payload: bytes, expect: type) -> Any:
    """The ``expect``-typed object in one verified frame payload (as
    :func:`scan_frames` returns it); :class:`WireError` otherwise."""
    try:
        obj = _StateUnpickler(io.BytesIO(payload)).load()
    except WireError:
        raise
    except Exception as exc:  # a damaged pickle raises many types
        raise WireError(f"undecodable payload: {exc!r}") from exc
    if not isinstance(obj, expect):
        raise WireError(
            f"payload holds {type(obj).__name__}, not {expect.__name__}"
        )
    return obj


def dump_file(magic: bytes, obj: Any) -> bytes:
    """A whole durable file: the ``magic`` header, then ``obj`` in one
    frame."""
    return file_header(magic) + dumps(obj)


def load_file(data: bytes, magic: bytes, expect: type) -> Any:
    """The object in a :func:`dump_file` file; :class:`WireError` for a
    wrong header, anything but exactly one good frame, or a bad payload."""
    check_header(data, magic)
    payloads, _end, error = scan_frames(data)
    if error is not None or len(payloads) != 1:
        raise WireError(error or f"file holds {len(payloads)} frames, not 1")
    return loads(payloads[0], expect)
