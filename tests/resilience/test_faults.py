"""Unit tests for the fault injectors."""

import zlib

import numpy as np
import pytest

from repro.logio import StatsCollector, read_log, write_log
from repro.logmodel.record import LogRecord
from repro.logmodel.syslog import render_syslog_line
from repro.resilience.faults import (
    ClockSkewInjector,
    CollectorCrash,
    CrashInjector,
    DuplicateInjector,
    FaultConfig,
    FaultPlan,
    RandomFaultInjector,
    ReorderInjector,
    StallTimeout,
    TruncateInjector,
    compose,
)
from repro.simulation.generator import generate_log


def _records(n, start=0.0, step=1.0):
    return [
        LogRecord(
            timestamp=start + k * step, source=f"n{k % 7}",
            facility="kernel", body=f"message number {k} with some payload",
        )
        for k in range(n)
    ]


class TestConfig:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultConfig(duplicate_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(crash_at=-1)

    def test_defaults_are_nonzero(self):
        config = FaultConfig.defaults(seed=3)
        assert config.crash_rate > 0
        assert config.duplicate_rate > 0
        assert config.reorder_rate > 0


class TestDuplicate:
    def test_duplicates_at_rate(self):
        inj = DuplicateInjector(np.random.default_rng(0), rate=0.2)
        out = list(inj.apply(_records(2000)))
        assert len(out) == 2000 + inj.duplicated
        assert 250 < inj.duplicated < 550

    def test_duplicate_is_adjacent_same_record(self):
        inj = DuplicateInjector(np.random.default_rng(0), rate=1.0)
        records = _records(5)
        out = list(inj.apply(records))
        assert out == [r for record in records for r in (record, record)]


class TestReorder:
    def test_produces_out_of_order_delivery(self):
        inj = ReorderInjector(np.random.default_rng(1), rate=0.1, window=4)
        out = list(inj.apply(_records(1000)))
        assert len(out) == 1000  # nothing lost
        times = [r.timestamp for r in out]
        assert times != sorted(times)
        assert inj.reordered > 50

    def test_zero_rate_is_identity(self):
        records = _records(50)
        inj = ReorderInjector(np.random.default_rng(1), rate=0.0)
        assert list(inj.apply(records)) == records


class TestTruncate:
    def test_marks_corrupted_and_shortens(self):
        inj = TruncateInjector(np.random.default_rng(2), rate=1.0)
        records = _records(20)
        out = list(inj.apply(records))
        assert inj.truncated == 20
        for original, damaged in zip(records, out):
            assert damaged.corrupted
            assert len(damaged.body) < len(original.body)
            assert original.body.startswith(damaged.body)


class TestClockSkew:
    def test_episodes_shift_timestamps(self):
        inj = ClockSkewInjector(
            np.random.default_rng(3), rate=0.02, magnitude=100.0, span=10
        )
        records = _records(1000)
        out = list(inj.apply(records))
        assert inj.episodes > 5
        assert inj.skewed_records >= inj.episodes
        moved = [
            (a, b) for a, b in zip(records, out) if a.timestamp != b.timestamp
        ]
        assert len(moved) == inj.skewed_records

    def test_skewed_file_lines_are_measured_with_their_new_stamp(
        self, tmp_path
    ):
        """A skewed record read from a file drops its old line, so Table 2
        measures exactly what rendering each skewed record gives; a
        corrupted record keeps its line."""
        gen = generate_log("liberty", scale=1e-5, seed=5)
        path = tmp_path / "liberty.log"
        write_log(gen.records, path, "liberty")
        year = int(gen.scenario.start_date.split("-")[0])
        inj = ClockSkewInjector(
            np.random.default_rng(3), rate=0.02, magnitude=100.0, span=10
        )
        skewed = list(inj.apply(read_log(path, "liberty", year=year)))
        assert inj.skewed_records > 0
        moved = [r for r in skewed if r.raw is None]
        assert 0 < len(moved) <= inj.skewed_records
        assert all(not r.corrupted for r in moved)

        data = "".join(
            render_syslog_line(r) + "\n" for r in skewed
        ).encode("utf-8")
        collector = StatsCollector("liberty")
        collector.observe_batch(skewed)
        stats = collector.finish()
        assert stats.raw_bytes == len(data)
        assert stats.compressed_bytes == len(zlib.compress(data, 6))

    def test_corrupted_records_keep_their_line(self):
        record = LogRecord(0.0, "", "", "garbage", corrupted=True,
                           raw="garbage")
        inj = ClockSkewInjector(np.random.default_rng(0), rate=1.0, span=1)
        (skewed,) = inj.apply([record])
        assert skewed.timestamp != 0.0
        assert skewed.raw == "garbage"


class TestCrash:
    def test_crashes_at_exact_index(self):
        inj = CrashInjector(at=100)
        out = []
        with pytest.raises(CollectorCrash) as excinfo:
            for record in inj.apply(_records(500)):
                out.append(record)
        assert len(out) == 100
        assert excinfo.value.records_delivered == 100

    def test_disarms_after_firing(self):
        inj = CrashInjector(at=10)
        with pytest.raises(CollectorCrash):
            list(inj.apply(_records(50)))
        assert inj.fired
        assert len(list(inj.apply(_records(50)))) == 50

    def test_random_faults_continue_across_restarts(self):
        """The countdown persists: a restarted stream does not re-fail at
        the same record, and the fault process stays deterministic."""
        inj = RandomFaultInjector(np.random.default_rng(4), rate=0.01)
        delivered_first = 0
        with pytest.raises(CollectorCrash):
            for _ in inj.apply(_records(10000)):
                delivered_first += 1
        inj2 = RandomFaultInjector(np.random.default_rng(4), rate=0.01)
        delivered_again = 0
        with pytest.raises(CollectorCrash):
            for _ in inj2.apply(_records(10000)):
                delivered_again += 1
        assert delivered_first == delivered_again  # deterministic from seed

        delivered_resumed = 0
        try:
            for _ in inj.apply(_records(10000)):
                delivered_resumed += 1
        except CollectorCrash:
            pass
        assert delivered_resumed != delivered_first or inj.fired_count >= 2

    def test_stall_exception_type(self):
        inj = RandomFaultInjector(
            np.random.default_rng(5), rate=0.5, exception=StallTimeout,
            label="stall",
        )
        with pytest.raises(StallTimeout):
            list(inj.apply(_records(100)))


class TestPlan:
    def test_wrap_is_deterministic_across_plans(self):
        """Two plans with the same config mutate the same stream
        identically — the property exact resume depends on."""
        config = FaultConfig(
            seed=9, duplicate_rate=0.05, reorder_rate=0.05,
            truncate_rate=0.05, skew_rate=0.01,
        )
        out_a = list(FaultPlan(config).wrap(_records(2000)))
        out_b = list(FaultPlan(config).wrap(_records(2000)))
        assert [(r.timestamp, r.body) for r in out_a] == [
            (r.timestamp, r.body) for r in out_b
        ]

    def test_rewrap_mutates_identically(self):
        """The same plan re-wrapping the stream (a supervisor restart)
        reproduces the identical mutated prefix."""
        config = FaultConfig(seed=9, duplicate_rate=0.05, truncate_rate=0.05)
        plan = FaultPlan(config)
        first = list(plan.wrap(_records(500)))
        second = list(plan.wrap(_records(500)))
        assert [(r.timestamp, r.body) for r in first] == [
            (r.timestamp, r.body) for r in second
        ]

    def test_planted_crash_fires_once(self):
        plan = FaultPlan(FaultConfig.crash_only(at=50, seed=1))
        with pytest.raises(CollectorCrash):
            list(plan.wrap(_records(200)))
        assert len(list(plan.wrap(_records(200)))) == 200

    def test_compose_chains_in_order(self):
        records = _records(100)
        rng = np.random.default_rng(0)
        out = list(
            compose(
                records,
                DuplicateInjector(rng, rate=0.0),
                TruncateInjector(rng, rate=0.0),
            )
        )
        assert out == records
