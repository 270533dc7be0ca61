"""Property suite for the durable on-disk format.

The wire module's contract is *total*: any byte sequence — torn, flipped,
or hostile — must scan to a clean verified prefix plus an explanation,
never an exception or a misparsed frame; and any real pipeline state must
survive the encode/decode round trip exactly.  Hypothesis drives both
directions: random frame soup for the scanner, and random record streams
(including lone-surrogate match text, mirroring
``tests/parallel/test_boundary.py``) through a real
:class:`~repro.engine.path.AlertPath` for every paper ruleset, so the
checkpoints that cross the format carry genuine stats, filter, shed, and
dead-letter state.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core.tagging import RulesetHandle  # noqa: E402
from repro.engine.path import AlertPath  # noqa: E402
from repro.logmodel.record import LogRecord  # noqa: E402
from repro.resilience import wire  # noqa: E402
from repro.resilience.checkpoint import PipelineCheckpoint  # noqa: E402
from repro.resilience.deadletter import DeadLetterQueue  # noqa: E402
from repro.resilience.durability import SegmentedWal  # noqa: E402
from repro.systems.specs import SYSTEMS  # noqa: E402

COMMON = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # CI stability: same examples every run
)

#: Lone surrogates — what corruption plants in bodies; strict utf-8
#: paths raise on them, so they must survive pickling and matching.
SURROGATE_TEXT = st.sampled_from([
    "\ud800", "\udfff", "before \ud800 after", "pair 😀 halves",
])

BODY = st.one_of(
    st.text(max_size=32),
    SURROGATE_TEXT,
    st.just(""),
)


# ---------------------------------------------------------------------------
# frames: total scanning over arbitrary damage
# ---------------------------------------------------------------------------


class TestFrames:
    @COMMON
    @given(payloads=st.lists(st.binary(max_size=128), max_size=8))
    def test_round_trip(self, payloads):
        data = wire.file_header(wire.WAL_MAGIC) + b"".join(
            wire.encode_frame(p) for p in payloads
        )
        scanned, end, error = wire.scan_frames(data)
        assert error is None
        assert end == len(data)
        assert scanned == payloads

    @COMMON
    @given(
        payloads=st.lists(st.binary(max_size=64), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_truncation_yields_clean_prefix(self, payloads, data):
        """Cutting the file anywhere loses at most the torn frame —
        everything scanned before it is intact and in order."""
        blob = wire.file_header(wire.WAL_MAGIC) + b"".join(
            wire.encode_frame(p) for p in payloads
        )
        cut = data.draw(
            st.integers(wire.HEADER_SIZE, len(blob)), label="cut"
        )
        scanned, end, error = wire.scan_frames(blob[:cut])
        assert scanned == payloads[:len(scanned)]
        assert end <= cut
        if cut == len(blob):
            assert error is None and scanned == payloads
        elif error is None:
            # A cut that looks clean must land exactly on a frame edge.
            assert end == cut

    @COMMON
    @given(
        payloads=st.lists(st.binary(max_size=64), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_bit_flip_never_passes_verification(self, payloads, data):
        """Any single flipped byte in the frame region stops the scan at
        (or before) the damaged frame — never an exception, never a
        reordered or invented payload."""
        blob = wire.file_header(wire.WAL_MAGIC) + b"".join(
            wire.encode_frame(p) for p in payloads
        )
        index = data.draw(
            st.integers(wire.HEADER_SIZE, len(blob) - 1), label="index"
        )
        damaged = (
            blob[:index] + bytes((blob[index] ^ 0xFF,)) + blob[index + 1:]
        )
        scanned, _end, error = wire.scan_frames(damaged)
        assert error is not None
        assert scanned == payloads[:len(scanned)]

    def test_implausible_length_is_rejected_not_slurped(self):
        frame = wire.encode_frame(b"x")
        # Forge the length field far past MAX_FRAME_PAYLOAD.
        forged = frame[:4] + (2**32 - 1).to_bytes(4, "little") + frame[8:]
        scanned, _end, error = wire.scan_frames(
            wire.file_header(wire.WAL_MAGIC) + forged
        )
        assert scanned == []
        assert "implausible" in error

    def test_header_magic_and_version_enforced(self):
        good = wire.file_header(wire.WAL_MAGIC)
        wire.check_header(good, wire.WAL_MAGIC)
        with pytest.raises(wire.WireError):
            wire.check_header(good, wire.CHECKPOINT_MAGIC)
        with pytest.raises(wire.WireError):
            wire.check_header(good[:3], wire.WAL_MAGIC)
        bad_version = good[:4] + b"\x63\x00"
        with pytest.raises(wire.WireError):
            wire.check_header(bad_version, wire.WAL_MAGIC)


class TestEntries:
    @COMMON
    @given(
        kind=st.sampled_from(["alert", "letter", "counters", "checkpoint"]),
        obj=st.recursive(
            st.one_of(st.integers(), st.floats(allow_nan=False), BODY,
                      st.booleans(), st.none()),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.dictionaries(st.text(max_size=8), inner, max_size=4),
            ),
            max_leaves=12,
        ),
    )
    def test_round_trip(self, kind, obj):
        decoded_kind, decoded_obj = wire.loads(
            wire.scan_frames(
                wire.file_header(wire.WAL_MAGIC) + wire.dumps((kind, obj))
            )[0][0],
            tuple,
        )
        assert decoded_kind == kind
        assert decoded_obj == obj

    def test_non_string_kind_rejected(self, tmp_path):
        (tmp_path / "wal-00000000.seg").write_bytes(
            wire.file_header(wire.WAL_MAGIC)
            + wire.dumps((42, "payload"))
            + wire.dumps(("alert", 1))
        )
        wal = SegmentedWal(str(tmp_path))
        assert list(wal.replay()) == [("alert", 1)]
        assert "not a (kind, object) entry" in wal.status.notes[0]


# ---------------------------------------------------------------------------
# checkpoints: real pipeline state through the format, every ruleset
# ---------------------------------------------------------------------------


def _examples(system):
    return [c.example for c in RulesetHandle(system).resolve() if c.example]


@st.composite
def record_streams(draw, system):
    """A short stream mixing genuinely taggable lines (ruleset examples),
    hypothesis noise (including lone surrogates), corrupted records, and
    timestamp regressions — so the snapshotted path carries alerts, dead
    letters, and filter state, not just zeros."""
    examples = _examples(system)
    n = draw(st.integers(3, 30))
    records, timestamp = [], 1000.0
    for i in range(n):
        step = draw(st.floats(-400.0, 30.0, allow_nan=False))
        timestamp += step
        kind = draw(st.integers(0, 3))
        if kind == 0 and examples:
            body = examples[i % len(examples)]
        else:
            body = draw(BODY)
        records.append(LogRecord(
            timestamp=timestamp,
            source=f"node-{i % 3}",
            facility=draw(st.sampled_from(["", "kernel"])),
            body=body,
            corrupted=draw(st.integers(0, 9)) == 0,
            system=system,
        ))
    return records


@pytest.mark.parametrize("system", sorted(SYSTEMS))
class TestCheckpointRoundTrip:
    @COMMON
    @given(data=st.data())
    def test_snapshot_survives_the_wire(self, system, data):
        records = data.draw(record_streams(system), label="records")
        path = AlertPath(
            system, dead_letters=DeadLetterQueue(capacity=len(records) + 1)
        )
        for record in records:
            if path.admit(record):
                path.process(record)
        checkpoint = dc_replace(
            path.snapshot(),
            # Exercise the bounded-run shed-memory field too.
            shed_state=data.draw(st.dictionaries(
                st.text(max_size=12), st.floats(allow_nan=False),
                max_size=4,
            ), label="shed_state"),
        )

        blob = wire.dump_file(wire.CHECKPOINT_MAGIC, checkpoint)
        wire.check_header(blob, wire.CHECKPOINT_MAGIC)
        payloads, end, error = wire.scan_frames(blob)
        assert error is None and len(payloads) == 1 and end == len(blob)
        restored = wire.load_file(
            blob, wire.CHECKPOINT_MAGIC, PipelineCheckpoint
        )

        assert restored.system == checkpoint.system
        assert restored.records_consumed == checkpoint.records_consumed
        # The watermark travels; the in-memory lists it names never do.
        assert restored.store_state == checkpoint.store_state
        assert checkpoint.alert_log is not None and restored.alert_log is None
        assert restored.report == checkpoint.report
        assert restored.severity == checkpoint.severity
        assert restored.corrupted_messages == checkpoint.corrupted_messages
        assert restored.dead_letters == checkpoint.dead_letters
        assert restored.shed_state == checkpoint.shed_state
        assert restored.filter_state == checkpoint.filter_state
        # Pickling drops the live compressor but keeps its fed-bytes
        # watermark and the volume statistics byte-for-byte; the live
        # snapshot keeps its compressor.
        assert restored.stats.compressor is None
        assert checkpoint.stats.compressor is not None
        assert restored.stats.fed_bytes == checkpoint.stats.fed_bytes
        assert restored.stats.stats == checkpoint.stats.stats

    @COMMON
    @given(data=st.data())
    def test_restored_state_is_live_again(self, system, data):
        """The decoded checkpoint rebuilds working collaborators — the
        filter continues from its state and the report copies deeply."""
        records = data.draw(record_streams(system), label="records")
        path = AlertPath(
            system, dead_letters=DeadLetterQueue(capacity=len(records) + 1)
        )
        for record in records:
            if path.admit(record):
                path.process(record)
        restored = wire.load_file(
            wire.dump_file(wire.CHECKPOINT_MAGIC, path.snapshot()),
            wire.CHECKPOINT_MAGIC, PipelineCheckpoint,
        )
        stf = restored.restore_filter()
        assert stf.state_dict() == restored.filter_state
        report = restored.restore_report()
        assert report == restored.report
        report.by_category["__mutated__"] = [1, 1]
        assert "__mutated__" not in restored.report.by_category


def test_checkpoint_payload_type_enforced():
    blob = wire.dump_file(wire.CHECKPOINT_MAGIC, "not one")
    with pytest.raises(wire.WireError, match="not PipelineCheckpoint"):
        wire.load_file(blob, wire.CHECKPOINT_MAGIC, PipelineCheckpoint)


def test_manifest_round_trip_and_rejection():
    fields = {"token": "t", "generation": 7, "complete": False}
    blob = wire.dump_file(wire.CHECKPOINT_MAGIC, fields)
    assert wire.load_file(blob, wire.CHECKPOINT_MAGIC, dict) == fields
    with pytest.raises(wire.WireError):
        wire.load_file(blob[:-3], wire.CHECKPOINT_MAGIC, dict)
    with pytest.raises(wire.WireError, match="2 frames"):
        wire.load_file(blob + wire.dumps(fields), wire.CHECKPOINT_MAGIC, dict)
