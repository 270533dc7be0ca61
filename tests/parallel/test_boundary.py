"""The byte-buffer shard boundary: wire-format and fallback unit tests.

The end-to-end serial/parallel equivalence lives in
``test_differential.py``; these tests pin the boundary mechanics
directly — the length-prefixed encode/decode round trip (including
newlines, non-ASCII, and lone surrogates planted by corruption), the
compact worker outcome, and the parent-local fallback for records whose
match text cannot travel as text.
"""

from __future__ import annotations

from array import array

import pytest

from repro.core.tagging import RulesetHandle, Tagger
from repro.logmodel.record import LogRecord, full_texts
from repro.parallel.config import ParallelConfig
from repro.parallel.sharded import (
    _LENGTH_TYPECODE,
    ShardedTagger,
    _encode_texts,
    chunked,
)


def decode_texts(lens_bytes, blob):
    """The worker-side slicing, reproduced for round-trip checks."""
    lens = array(_LENGTH_TYPECODE)
    lens.frombytes(lens_bytes)
    decoded = blob.decode("utf-8", "surrogatepass")
    out, pos = [], 0
    for length in lens:
        out.append(decoded[pos:pos + length])
        pos += length
    assert pos == len(decoded), "blob longer than the lengths account for"
    return out


def record(body, facility="kernel", t=1.0):
    return LogRecord(timestamp=t, source="n1", facility=facility,
                     body=body, system="liberty")


class TestEncodeRoundTrip:
    @pytest.mark.parametrize("texts", [
        [],
        [""],
        ["plain ascii"],
        ["a", "", "bb", "", ""],
        ["embedded\nnewline", "tab\there", "cr\rhere"],
        ["açcénted", "日本語テキスト", "mixed ascii 日本"],
        ["\x00null byte", "high \U0001f600 plane"],
    ])
    def test_round_trip(self, texts):
        assert decode_texts(*_encode_texts(texts)) == texts

    def test_lone_surrogate_round_trips(self):
        # Corruption (or hypothesis) can plant lone surrogates in a body;
        # strict utf-8 would raise, surrogatepass must round-trip them.
        texts = ["before \ud800 after", "\udfff"]
        assert decode_texts(*_encode_texts(texts)) == texts

    def test_lengths_are_characters_not_bytes(self):
        texts = ["日本", "ab"]
        lens_bytes, blob = _encode_texts(texts)
        lens = array(_LENGTH_TYPECODE)
        lens.frombytes(lens_bytes)
        assert list(lens) == [2, 2]
        assert len(blob) > 4  # multibyte on the wire

    def test_non_str_text_raises_type_error(self):
        with pytest.raises(TypeError):
            _encode_texts(["fine", 12345])


class TestMatchTexts:
    def test_facility_prefix_matches_full_text(self):
        records = [
            record("body only", facility=""),
            record("with facility", facility="pbs_mom"),
        ]
        assert full_texts(records) == [r.full_text() for r in records]


class TestLocalFallback:
    """Records whose text cannot ship resolve in-parent, identically to
    the serial schedule (same error reprs, same positions)."""

    def _stream(self):
        handle = RulesetHandle("liberty")
        example = next(c.example for c in handle.resolve() if c.example)
        return [
            record(example, t=1.0),
            # Non-str body with no facility prefix: full_text is non-str,
            # the serial strict path raises TypeError on it.
            record(12345, facility="", t=2.0),
            record("routine chatter", t=3.0),
            record(example, t=4.0),
        ]

    def test_sharded_outcome_matches_serial(self):
        records = self._stream()
        serial = Tagger(RulesetHandle("liberty").resolve())
        expected = serial.tag_batch(records)
        with ShardedTagger(
            "liberty", ParallelConfig(workers=1, batch_size=4)
        ) as sharded:
            outcomes = list(sharded.tag_batches([records]))
            # The whole batch is tagged in the parent: no pool ever starts,
            # and nothing counts as a crash replay.
            assert sharded._pool is None
            assert sharded.stats.batches_retried == 0
        assert len(outcomes) == 1
        _, outcome = outcomes[0]
        assert outcome == expected
        assert "TypeError" in outcome.error_map()[1]

    def test_tag_stream_order_preserved_across_batches(self):
        handle = RulesetHandle("liberty")
        example = next(c.example for c in handle.resolve() if c.example)
        records = [
            record(example if i % 3 == 0 else "quiet noise", t=float(i))
            for i in range(50)
        ]
        serial = list(Tagger(handle.resolve()).tag_stream(records))
        with ShardedTagger(
            "liberty", ParallelConfig(workers=2, batch_size=7)
        ) as sharded:
            parallel = list(sharded.tag_stream(iter(records)))
        assert [(a.timestamp, a.category) for a in parallel] == \
            [(a.timestamp, a.category) for a in serial]

    def test_chunked_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            list(chunked([], 0))
