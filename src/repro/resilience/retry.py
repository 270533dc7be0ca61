"""Per-channel circuit breaking.

The collection paths of Section 3.1 fail in runs: a syslog relay
stalls, a TCP connection to the SMW resets, a worker keeps crashing on
the same input.  Production collectors stop hammering a channel that
keeps failing and probe it again later — a circuit breaker.  Each
ingest-service tenant (:class:`repro.service.tenant.Tenant`) owns one
and consults it before admitting a run of records.

The breaker keeps no clock of its own: every call passes ``now``
(the tenant passes ``time.monotonic()``; a simulation can pass record
timestamps and run at full speed).
"""

from __future__ import annotations

import enum
from typing import Optional


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-channel circuit breaker over the caller's clock.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` rejects until ``reset_timeout`` seconds have
    passed, then one probe is allowed (half-open).  A probe success
    closes the circuit; a probe failure re-opens it.
    """

    def __init__(self, failure_threshold: int = 5, reset_timeout: float = 30.0):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.times_opened = 0
        self.rejected = 0

    def allow(self, now: float) -> bool:
        """May a call proceed at time ``now``?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at >= self.reset_timeout:
                self.state = BreakerState.HALF_OPEN
                return True
            self.rejected += 1
            return False
        return True  # HALF_OPEN: the probe is in flight

    def record_success(self) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            if self.state is not BreakerState.OPEN:
                self.times_opened += 1
            self.state = BreakerState.OPEN
            self.opened_at = now
