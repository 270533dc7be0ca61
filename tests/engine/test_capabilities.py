"""Tests for the single composition table the pipeline and CLI share."""

from __future__ import annotations

import pytest

from repro.engine.capabilities import (
    BYTE_IDENTICAL,
    CAPABILITY_TABLE,
    SHED_TOLERANCE,
    build_driver,
    capability_lines,
)
from repro.engine.drivers import BoundedDriver, SerialDriver, ShardedDriver
from repro.parallel.config import ParallelConfig
from repro.resilience.backpressure import BackpressureConfig
from repro.resilience.checkpoint import CheckpointManager

PAR = ParallelConfig(workers=2, batch_size=64)
BP = BackpressureConfig()


class TestDriverSelection:
    @pytest.mark.parametrize("parallel,backpressure,expected", [
        (None, None, "serial"),
        (PAR, None, "sharded"),
        (None, BP, "bounded"),
        (PAR, BP, "bounded-sharded"),
    ])
    def test_driver_name(self, parallel, backpressure, expected):
        assert build_driver(parallel, backpressure).name == expected

    def test_driver_types(self):
        assert isinstance(build_driver(), SerialDriver)
        assert isinstance(build_driver(parallel=PAR), ShardedDriver)
        assert isinstance(build_driver(backpressure=BP), BoundedDriver)
        both = build_driver(parallel=PAR, backpressure=BP)
        assert isinstance(both, BoundedDriver)
        assert both.parallel is PAR


class TestCapabilityTable:
    def test_every_driver_has_a_row(self):
        assert set(CAPABILITY_TABLE) == {
            "serial", "sharded", "bounded", "bounded-sharded", "service",
            "serial-predict",
        }

    def test_equivalence_guarantees(self):
        assert CAPABILITY_TABLE["serial"].equivalence == BYTE_IDENTICAL
        assert CAPABILITY_TABLE["sharded"].equivalence == BYTE_IDENTICAL
        assert CAPABILITY_TABLE["bounded"].equivalence == SHED_TOLERANCE
        assert CAPABILITY_TABLE["bounded-sharded"].equivalence == \
            SHED_TOLERANCE
        assert CAPABILITY_TABLE["service"].equivalence == SHED_TOLERANCE
        assert CAPABILITY_TABLE["serial-predict"].equivalence == \
            BYTE_IDENTICAL

    def test_checkpoint_barriers(self):
        assert CAPABILITY_TABLE["serial"].checkpoint_barrier == "record"
        assert CAPABILITY_TABLE["sharded"].checkpoint_barrier == "batch"
        assert CAPABILITY_TABLE["bounded"].checkpoint_barrier == \
            "drained-queues"

    def test_capability_lines_render_every_row(self):
        lines = capability_lines()
        # Header + one row per driver + the durable --state-dir footnote.
        assert len(lines) >= 1 + len(CAPABILITY_TABLE)
        text = "\n".join(lines)
        for name in CAPABILITY_TABLE:
            assert name in text
        assert "--state-dir" in text


class TestValidation:
    def test_all_driver_combinations_legal(self):
        for parallel in (None, PAR):
            for backpressure in (None, BP):
                driver = build_driver(
                    parallel=parallel, backpressure=backpressure,
                )
                assert driver.name in CAPABILITY_TABLE

    def test_checkpoint_every_must_be_positive(self):
        """The one check, where the cadence is used."""
        with pytest.raises(ValueError, match="at least 1"):
            CheckpointManager(every=0)
        CheckpointManager(every=1)
