"""Unit tests for corruption injection."""

import numpy as np
import pytest

from repro.logmodel.corruption import looks_garbled
from repro.logmodel.record import LogRecord
from repro.simulation.corruptor import Corruptor

BODY = "VIPKL(1): [create_mr] MM_bld_hh_mr failed (-253:VAPI_EAGAIN)"


def _records(n):
    return [
        LogRecord(timestamp=float(i), source="tn231", facility="kernel",
                  body=BODY)
        for i in range(n)
    ]


class TestCorruptOne:
    def test_truncation_produces_prefix(self):
        corruptor = Corruptor(np.random.default_rng(0), modes=(1, 0, 0))
        damaged = corruptor.corrupt_one(_records(1)[0])
        assert damaged.corrupted
        assert BODY.startswith(damaged.body)
        assert len(damaged.body) < len(BODY)

    def test_splice_keeps_prefix_adds_foreign_tail(self):
        corruptor = Corruptor(np.random.default_rng(0), modes=(0, 1, 0))
        damaged = corruptor.corrupt_one(_records(1)[0])
        assert damaged.corrupted
        # Some prefix of the original survives, the tail diverges.
        assert damaged.body != BODY
        assert damaged.body[:10] == BODY[:10]

    def test_garbled_source(self):
        corruptor = Corruptor(np.random.default_rng(0), modes=(0, 0, 1))
        damaged = corruptor.corrupt_one(_records(1)[0])
        assert damaged.corrupted
        assert looks_garbled(damaged.source)
        assert damaged.body == BODY


class TestApply:
    def test_rate_zero_touches_nothing(self):
        corruptor = Corruptor(np.random.default_rng(0), rate=0.0)
        out = list(corruptor.apply(_records(100)))
        assert not any(r.corrupted for r in out)

    def test_rate_one_touches_everything(self):
        corruptor = Corruptor(np.random.default_rng(0), rate=1.0)
        out = list(corruptor.apply(_records(50)))
        assert all(r.corrupted for r in out)

    def test_rate_approximately_respected(self):
        corruptor = Corruptor(np.random.default_rng(0), rate=0.1)
        out = list(corruptor.apply(_records(5000)))
        damaged = sum(r.corrupted for r in out)
        assert 300 < damaged < 700

    def test_stream_length_preserved(self):
        corruptor = Corruptor(np.random.default_rng(0), rate=0.5)
        assert len(list(corruptor.apply(_records(200)))) == 200

    def test_stats_accumulate(self):
        corruptor = Corruptor(np.random.default_rng(0), rate=1.0)
        list(corruptor.apply(_records(100)))
        stats = corruptor.stats
        assert stats.processed == 100
        assert stats.truncated + stats.spliced + stats.garbled_source == 100

    def test_determinism(self):
        a = Corruptor(np.random.default_rng(7), rate=0.3)
        b = Corruptor(np.random.default_rng(7), rate=0.3)
        out_a = [(r.body, r.source) for r in a.apply(_records(100))]
        out_b = [(r.body, r.source) for r in b.apply(_records(100))]
        assert out_a == out_b


class TestValidation:
    def test_bad_rate(self):
        with pytest.raises(ValueError):
            Corruptor(np.random.default_rng(0), rate=1.5)

    def test_bad_modes(self):
        with pytest.raises(ValueError):
            Corruptor(np.random.default_rng(0), modes=(1, 2))
        with pytest.raises(ValueError):
            Corruptor(np.random.default_rng(0), modes=(0, 0, 0))
