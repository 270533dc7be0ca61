"""Unit tests for the transport models."""

import numpy as np
import pytest

from repro.logmodel.record import LogRecord
from repro.simulation.transport import UdpSyslogChannel


def _records(times):
    return [
        LogRecord(timestamp=t, source="n1", facility="kernel", body="x")
        for t in times
    ]


class TestUdp:
    def test_idle_traffic_mostly_survives(self):
        rng = np.random.default_rng(0)
        channel = UdpSyslogChannel(rng, base_loss=0.001)
        times = np.arange(0, 1000, 10.0)  # 0.1 msg/s: idle
        delivered = list(channel.transmit(_records(times)))
        assert len(delivered) >= len(times) * 0.98

    def test_contention_loses_more(self):
        """'some messages being lost during network contention'
        (Section 3.1): loss under burst load must exceed idle loss."""
        rng = np.random.default_rng(0)
        idle = UdpSyslogChannel(rng, congestion_rate=100.0)
        list(idle.transmit(_records(np.arange(0, 5000, 5.0))))

        rng = np.random.default_rng(0)
        busy = UdpSyslogChannel(rng, congestion_rate=100.0)
        list(busy.transmit(_records(np.arange(0, 5, 0.005))))  # 200 msg/s
        assert busy.loss_fraction > idle.loss_fraction * 3

    def test_loss_counters(self):
        rng = np.random.default_rng(1)
        channel = UdpSyslogChannel(rng, base_loss=1.0, congestion_loss=0.0)
        delivered = list(channel.transmit(_records([1.0, 2.0])))
        assert delivered == []
        assert channel.sent == 2
        assert channel.dropped == 2
        assert channel.loss_fraction == 1.0

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            UdpSyslogChannel(rng, base_loss=1.5)
        with pytest.raises(ValueError):
            UdpSyslogChannel(rng, congestion_rate=0)

    def test_record_contributes_to_own_contention(self):
        """Regression: the in-flight record is counted in the rate window
        *before* the drop probability is computed.  The old off-by-one
        let the first record of every burst see the stale pre-burst rate;
        with congestion_rate=1 a single record alone must already
        saturate the channel."""
        rng = np.random.default_rng(0)
        channel = UdpSyslogChannel(
            rng, base_loss=0.0, congestion_loss=1.0, congestion_rate=1.0
        )
        delivered = list(channel.transmit(_records([0.0])))
        assert delivered == []
        assert channel.dropped == 1

    def test_burst_members_see_rising_rate(self):
        """Within a same-second burst, later records face at least the
        drop probability the first one did — utilization is monotone in
        the window count that now includes each sender."""
        rng = np.random.default_rng(0)
        channel = UdpSyslogChannel(
            rng, base_loss=0.0, congestion_loss=0.5, congestion_rate=10.0
        )
        probs = []
        for record in _records(np.linspace(0, 0.5, 8)):
            channel._window.append(record.timestamp)
            probs.append(channel._loss_probability(record.timestamp))
        assert probs == sorted(probs)
        assert probs[0] == pytest.approx(0.05)  # 1/10 utilization, not 0


class TestReceiverPressure:
    def _full_queue(self, capacity=10):
        from repro.resilience.backpressure import BoundedQueue

        queue = BoundedQueue("recv", capacity=capacity)
        for k in range(capacity):
            queue.put(k)
        return queue

    def test_backed_up_receiver_raises_loss(self):
        rng = np.random.default_rng(3)
        channel = UdpSyslogChannel(
            rng, base_loss=0.0, congestion_loss=0.0,
            receiver_queue=self._full_queue(), pressure_loss=1.0,
        )
        delivered = list(channel.transmit(_records([1.0, 2.0, 3.0])))
        assert delivered == []
        assert channel.dropped == channel.dropped_pressure == 3

    def test_empty_receiver_adds_no_loss(self):
        from repro.resilience.backpressure import BoundedQueue

        rng = np.random.default_rng(3)
        channel = UdpSyslogChannel(
            rng, base_loss=0.0, congestion_loss=0.0,
            receiver_queue=BoundedQueue("recv", capacity=10),
            pressure_loss=1.0,
        )
        delivered = list(channel.transmit(_records([1.0, 2.0, 3.0])))
        assert len(delivered) == 3
        assert channel.dropped_pressure == 0

    def test_pressure_drops_counted_separately_from_wire_drops(self):
        rng = np.random.default_rng(5)
        channel = UdpSyslogChannel(
            rng, base_loss=0.5, congestion_loss=0.0,
            receiver_queue=self._full_queue(), pressure_loss=0.5,
        )
        list(channel.transmit(_records(np.arange(0, 200, 1.0))))
        wire_drops = channel.dropped - channel.dropped_pressure
        assert wire_drops > 0
        assert channel.dropped_pressure > 0
        assert channel.dropped <= channel.sent

    def test_invalid_pressure_loss(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            UdpSyslogChannel(rng, pressure_loss=1.5)
