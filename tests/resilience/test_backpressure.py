"""Unit tests for the bounded queue, its pressure clock, credits, the
report, and the config."""

import pytest

from repro.resilience.backpressure import (
    HIGH_FRACTION,
    LOW_FRACTION,
    BackpressureConfig,
    BoundedQueue,
    OverloadReport,
    PressureClock,
    PressureLevel,
)


def _tallies(**counts):
    tallies = {key: {} for key in ("offered", "shed", "spilled", "throughput")}
    tallies.update(counts, events=[])
    return tallies


class TestWatermarks:
    def test_for_capacity_defaults(self):
        q = BoundedQueue("q", capacity=100)
        assert (q.high, q.low) == (80, 50)

    def test_tiny_capacity_stays_ordered(self):
        q = BoundedQueue("q", capacity=1)
        assert 0 <= q.low < q.high <= 1

    def test_invalid_ordering_rejected(self):
        """The door's watermarks are constants, ordered once: they can
        neither meet nor invert."""
        assert 0.0 < LOW_FRACTION < HIGH_FRACTION <= 1.0


class TestBoundedQueue:
    def test_put_get_fifo_and_counters(self):
        q = BoundedQueue("q", capacity=4)
        assert q.put("a") and q.put("b")
        assert q.take(1) == ["a"]
        assert len(q) == 1
        assert q.peak_occupancy == 2

    def test_full_queue_refuses_instead_of_evicting(self):
        q = BoundedQueue("q", capacity=2)
        assert q.put(1) and q.put(2)
        assert not q.put(3)
        assert q.take(3) == [1, 2]  # nothing was evicted

    def test_pressure_hysteresis(self):
        q = BoundedQueue("q", capacity=10, high_fraction=0.8, low_fraction=0.4)
        for k in range(8):
            q.put(k)
        assert q.pressure() is PressureLevel.ELEVATED
        q.take(1)  # 7: between low and high -> stays elevated
        assert q.pressure() is PressureLevel.ELEVATED
        q.take(3)  # down to 4 = low watermark
        assert q.pressure() is PressureLevel.NORMAL
        for k in range(6):
            q.put(k)  # back to capacity
        assert q.pressure() is PressureLevel.CRITICAL

    def test_credits_are_headroom_below_high_watermark(self):
        q = BoundedQueue("q", capacity=10, high_fraction=0.8, low_fraction=0.4)
        assert q.credits() == 8
        for k in range(6):
            q.put(k)
        assert q.credits() == 2
        for k in range(4):
            q.put(k)
        assert q.credits() == 0


class TestCreditGate:
    def test_grants_bounded_by_headroom(self):
        q = BoundedQueue("q", capacity=10, high_fraction=0.8, low_fraction=0.4)
        assert q.acquire(5) == 5
        for k in range(5):
            q.put(k)
        assert q.acquire(5) == 3  # only 3 slots below high remain
        assert q.credits_requested == 10
        assert q.credits_requested - q.credits_withheld == 8  # granted
        assert q.credits_withheld == 2


class TestOverloadMonitor:
    """The pressure clock's streak and latch, as a queue samples it."""

    def test_sustain_latches_after_consecutive_overload(self):
        q = BoundedQueue("q", capacity=4, high_fraction=0.5,
                         low_fraction=0.25, sustain=3)
        q.put(1), q.put(2)
        assert q.sample() is PressureLevel.ELEVATED
        assert q.sample() is PressureLevel.ELEVATED
        assert not q.clock.latched
        q.sample()
        assert q.clock.latched
        assert q.clock.hot_samples == q.clock.samples == 3

    def test_normal_sample_resets_the_streak(self):
        q = BoundedQueue("q", capacity=4, high_fraction=0.5,
                         low_fraction=0.25, sustain=2)
        q.put(1), q.put(2)
        q.sample()
        q.take(1)  # drain to the low watermark -> NORMAL
        assert q.sample() is PressureLevel.NORMAL
        q.put(2)
        q.sample()
        assert not q.clock.latched  # streak restarted
        for _ in range(5):
            q.take(1)
            q.sample()
        assert not q.clock.latched  # calm samples never latch

    def test_peaks_are_exact_not_sampled(self):
        q = BoundedQueue("q", capacity=8)
        for k in range(6):
            q.put(k)
        q.take(6)
        q.sample()  # queue empty now, but peak was 6
        report = OverloadReport.build(q, _tallies())
        assert report.queue_peaks == {"q": 6}

    def test_peaks_survive_reattach(self):
        """A resumed run's queue is a new one, loaded from the
        checkpointed ledger: peak, credits and clock carry over."""
        q1 = BoundedQueue("q", capacity=8, sustain=2)
        for k in range(7):
            q1.put(k)
        q1.acquire(3)
        q1.sample(), q1.sample()
        q1.take(7)
        q1.sample()
        q2 = BoundedQueue("q", capacity=8, sustain=2)
        q2.load_state_dict(q1.state_dict())
        assert q2.state_dict() == q1.state_dict()
        assert q2.peak_occupancy == 7
        assert q2.clock.latched
        assert OverloadReport.build(q2, _tallies()) \
            == OverloadReport.build(q1, _tallies())


class TestPressureClock:
    def test_run_latch_holds_governor_latch_clears(self):
        held = PressureClock(high=2, low=1, limit=4, sustain=2)
        cleared = PressureClock(high=2, low=1, limit=4, sustain=2, clears=True)
        for clock in (held, cleared):
            for n in (3, 3, 0, 0):
                clock.sample(n)
        assert held.latched
        assert not cleared.latched

    def test_level_is_hysteresis_only(self):
        clock = PressureClock(high=2, low=1, limit=4, sustain=1)
        assert clock.level(3) is PressureLevel.ELEVATED
        assert clock.level(4) is PressureLevel.CRITICAL
        assert (clock.samples, clock.latched) == (0, False)

    def test_sustain_validated(self):
        with pytest.raises(ValueError):
            PressureClock(high=2, low=1, limit=4, sustain=0)


class TestBackpressureConfig:
    def test_burst_arrival_outpaces_service(self):
        cfg = BackpressureConfig.burst(factor=10.0, service_batch=32)
        assert cfg.arrival_batch == 320
        assert not cfg.source_pausable

    def test_validation(self):
        with pytest.raises(ValueError):
            BackpressureConfig(max_buffer=0)
        with pytest.raises(ValueError):
            BackpressureConfig.burst(factor=0.5)


class TestOverloadReport:
    def test_from_parts_and_summary(self):
        q = BoundedQueue("ingest", capacity=4, high_fraction=0.5,
                         low_fraction=0.25, sustain=1)
        q.put(1), q.put(2)
        q.sample()
        q.acquire(5)
        report = OverloadReport.build(q, _tallies(
            offered={"info-chatter": 1, "tagged-alert": 1},
            shed={"info-chatter": 1},
            spilled={"tagged-alert": 1},
            throughput={"arrive": 2, "filter": 0},
        ), degraded=True)
        assert report.queue_peaks["ingest"] == 2
        assert report.total_shed == 1
        assert report.total_spilled == 1
        assert report.sustained_overload
        assert report.credits_requested == 5
        assert report.stage_throughput == {"arrive": 2}  # no zero stages
        text = "\n".join(report.summary_lines())
        assert "ingest 2/4" in text
        assert "shed" in text and "spilled" in text
        assert "degraded" in text
