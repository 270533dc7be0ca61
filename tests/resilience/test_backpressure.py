"""Unit tests for bounded queues, credits, the monitor, the config."""

import pytest

from repro.resilience.backpressure import (
    BackpressureConfig,
    BoundedQueue,
    CreditGate,
    OverloadMonitor,
    OverloadReport,
    PressureLevel,
    Watermarks,
)
from repro.resilience.shedding import ShedAccounting


class TestWatermarks:
    def test_for_capacity_defaults(self):
        wm = Watermarks.for_capacity(100)
        assert wm.high == 80
        assert wm.low == 50

    def test_tiny_capacity_stays_ordered(self):
        wm = Watermarks.for_capacity(1)
        assert 0 <= wm.low < wm.high <= 1

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            Watermarks(high=5, low=5)
        with pytest.raises(ValueError):
            Watermarks(high=5, low=-1)


class TestBoundedQueue:
    def test_put_get_fifo_and_counters(self):
        q = BoundedQueue("q", capacity=4)
        assert q.put("a") and q.put("b")
        assert q.get() == "a"
        assert q.total_in == 2
        assert q.total_out == 1
        assert q.peak_occupancy == 2

    def test_full_queue_refuses_instead_of_evicting(self):
        q = BoundedQueue("q", capacity=2)
        assert q.put(1) and q.put(2)
        assert not q.put(3)
        assert q.refused == 1
        assert [q.get(), q.get()] == [1, 2]  # nothing was evicted

    def test_pressure_hysteresis(self):
        q = BoundedQueue("q", capacity=10, watermarks=Watermarks(high=8, low=4))
        for k in range(8):
            q.put(k)
        assert q.pressure() is PressureLevel.ELEVATED
        q.get()  # 7: between low and high -> stays elevated
        assert q.pressure() is PressureLevel.ELEVATED
        for _ in range(3):
            q.get()  # down to 4 = low watermark
        assert q.pressure() is PressureLevel.NORMAL
        for k in range(6):
            q.put(k)  # back to capacity
        assert q.pressure() is PressureLevel.CRITICAL

    def test_credits_are_headroom_below_high_watermark(self):
        q = BoundedQueue("q", capacity=10, watermarks=Watermarks(high=8, low=4))
        assert q.credits() == 8
        for k in range(6):
            q.put(k)
        assert q.credits() == 2
        for k in range(4):
            q.put(k)
        assert q.credits() == 0


class TestCreditGate:
    def test_grants_bounded_by_headroom(self):
        q = BoundedQueue("q", capacity=10, watermarks=Watermarks(high=8, low=4))
        gate = CreditGate(q)
        assert gate.acquire(5) == 5
        for k in range(5):
            q.put(k)
        assert gate.acquire(5) == 3  # only 3 slots below high remain
        assert gate.requested == 10
        assert gate.granted == 8
        assert gate.withheld == 2


class TestOverloadMonitor:
    def test_sustain_latches_after_consecutive_overload(self):
        monitor = OverloadMonitor(sustain=3)
        q = monitor.attach(BoundedQueue("q", capacity=4,
                                        watermarks=Watermarks(high=2, low=1)))
        q.put(1), q.put(2)
        assert monitor.sample() is PressureLevel.ELEVATED
        assert monitor.sample() is PressureLevel.ELEVATED
        assert not monitor.sustained_overload
        monitor.sample()
        assert monitor.sustained_overload
        assert monitor.overloaded_samples == 3
        assert monitor.events

    def test_normal_sample_resets_the_streak(self):
        monitor = OverloadMonitor(sustain=2)
        q = monitor.attach(BoundedQueue("q", capacity=4,
                                        watermarks=Watermarks(high=2, low=1)))
        q.put(1), q.put(2)
        monitor.sample()
        q.get()  # drain to low watermark -> NORMAL
        assert monitor.sample() is PressureLevel.NORMAL
        q.put(2)
        monitor.sample()
        assert not monitor.sustained_overload  # streak restarted

    def test_peaks_are_exact_not_sampled(self):
        monitor = OverloadMonitor()
        q = monitor.attach(BoundedQueue("q", capacity=8))
        for k in range(6):
            q.put(k)
        while q:
            q.get()
        monitor.sample()  # queue empty now, but peak was 6
        assert monitor.peak_by_queue["q"] == 6

    def test_peaks_survive_reattach(self):
        monitor = OverloadMonitor()
        q1 = monitor.attach(BoundedQueue("q", capacity=8))
        for k in range(5):
            q1.put(k)
        monitor.sample()
        monitor.attach(BoundedQueue("q", capacity=8))  # supervisor restart
        monitor.sample()
        assert monitor.peak_by_queue["q"] == 5


class TestBackpressureConfig:
    def test_burst_arrival_outpaces_service(self):
        cfg = BackpressureConfig.burst(factor=10.0, service_batch=32)
        assert cfg.arrival_batch == 320
        assert not cfg.source_pausable

    def test_validation(self):
        with pytest.raises(ValueError):
            BackpressureConfig(max_buffer=0)
        with pytest.raises(ValueError):
            BackpressureConfig(high_fraction=0.4, low_fraction=0.5)
        with pytest.raises(ValueError):
            BackpressureConfig.burst(factor=0.5)

    def test_with_runtime_preserves_other_fields(self):
        cfg = BackpressureConfig(max_buffer=77)
        monitor, accounting = OverloadMonitor(), ShedAccounting()
        bound = cfg.with_runtime(monitor=monitor, accounting=accounting)
        assert bound.max_buffer == 77
        assert bound.monitor is monitor
        assert bound.accounting is accounting


class TestOverloadReport:
    def test_from_parts_and_summary(self):
        monitor = OverloadMonitor(sustain=1)
        q = monitor.attach(BoundedQueue("ingest", capacity=4,
                                        watermarks=Watermarks(high=2, low=1)))
        q.put(1), q.put(2)
        monitor.sample()
        accounting = ShedAccounting()
        accounting.count_offered("info-chatter")
        accounting.count_shed("info-chatter")
        accounting.count_spilled("tagged-alert")
        gate = CreditGate(q)
        gate.acquire(5)
        report = OverloadReport.from_parts(monitor=monitor,
                                           accounting=accounting,
                                           gate=gate, degraded=True)
        assert report.queue_peaks["ingest"] == 2
        assert report.total_shed == 1
        assert report.total_spilled == 1
        assert report.sustained_overload
        text = "\n".join(report.summary_lines())
        assert "ingest 2/4" in text
        assert "shed" in text and "spilled" in text
        assert "degraded" in text
