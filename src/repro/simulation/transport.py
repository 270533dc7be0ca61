"""Log transport model: lossy UDP syslog.

The paper is explicit that the collection path shapes the data
(Section 3.1): Thunderbird/Spirit/Liberty forward syslog over **UDP** —
"as is standard syslog practice, the UDP protocol is used for
transmission, resulting in some messages being lost during network
contention".  (Red Storm's reliable RAS TCP path and BG/L's JTAG-mailbox
polling lose nothing; they appear only as each record's
:class:`~repro.logmodel.record.Channel`.)

The channel is a stream transformer over time-ordered records.  Its loss
is *load-dependent*: the drop probability rises with the instantaneous
message rate, which is exactly when bursts (the interesting part of the
log) are being generated.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator

from ..logmodel.record import LogRecord


class UdpSyslogChannel:
    """Lossy fan-in channel modeling syslog-over-UDP under contention.

    Parameters
    ----------
    rng:
        Randomness source.
    base_loss:
        Drop probability at idle.
    congestion_loss:
        Additional drop probability at/above ``congestion_rate``; loss
        interpolates linearly in the observed rate between idle and there.
    congestion_rate:
        Messages/second over a 1-second trailing window considered full
        contention.
    receiver_queue:
        Optional bounded receive buffer
        (:class:`~repro.resilience.backpressure.BoundedQueue`).  UDP has
        no flow control, so a backed-up receiver cannot slow the senders;
        instead its kernel buffer overflows.  When the queue's pressure is
        elevated an extra ``pressure_loss`` drop probability applies
        (scaled by how far past the high watermark it sits); those drops
        are counted separately in :attr:`dropped_pressure`.
    pressure_loss:
        Additional drop probability when ``receiver_queue`` is completely
        full (interpolated from 0 at the high watermark).
    """

    def __init__(
        self,
        rng,
        base_loss: float = 0.001,
        congestion_loss: float = 0.05,
        congestion_rate: float = 500.0,
        receiver_queue=None,
        pressure_loss: float = 0.25,
    ):
        if not 0 <= base_loss <= 1 or not 0 <= congestion_loss <= 1:
            raise ValueError("loss probabilities must be in [0, 1]")
        if not 0 <= pressure_loss <= 1:
            raise ValueError("pressure_loss must be in [0, 1]")
        if congestion_rate <= 0:
            raise ValueError("congestion_rate must be positive")
        self.rng = rng
        self.base_loss = base_loss
        self.congestion_loss = congestion_loss
        self.congestion_rate = congestion_rate
        self.receiver_queue = receiver_queue
        self.pressure_loss = pressure_loss
        self.sent = 0
        self.dropped = 0
        self.dropped_pressure = 0
        self._window: Deque[float] = deque()

    def _loss_probability(self, timestamp: float) -> float:
        """Drop probability at ``timestamp``, with the in-flight record
        already counted in the trailing window: the record contending for
        the wire contributes to the contention it experiences (otherwise
        the first record of every burst would see the stale pre-burst
        rate)."""
        while self._window and timestamp - self._window[0] > 1.0:
            self._window.popleft()
        rate = len(self._window)
        utilization = min(1.0, rate / self.congestion_rate)
        return self.base_loss + utilization * self.congestion_loss

    def _pressure_probability(self) -> float:
        """Extra drop probability from a backed-up receiver buffer: zero
        up to the high watermark, rising linearly to ``pressure_loss`` at
        a completely full queue."""
        q = self.receiver_queue
        if q is None:
            return 0.0
        high = q.high
        headroom = q.capacity - high
        if headroom <= 0:
            return self.pressure_loss if len(q) >= high else 0.0
        over = len(q) - high
        if over <= 0:
            return 0.0
        return self.pressure_loss * min(1.0, over / headroom)

    def transmit(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        """Yield the records that survive the channel."""
        for record in records:
            self.sent += 1
            self._window.append(record.timestamp)
            p_wire = self._loss_probability(record.timestamp)
            p_recv = self._pressure_probability()
            # One draw decides both: below p_wire is a network drop, in
            # the next p_recv-wide band a receiver-buffer overflow drop.
            u = self.rng.random()
            if u < p_wire:
                self.dropped += 1
                continue
            if u < min(1.0, p_wire + p_recv):
                self.dropped += 1
                self.dropped_pressure += 1
                continue
            yield record

    @property
    def loss_fraction(self) -> float:
        return self.dropped / self.sent if self.sent else 0.0
