"""Unit tests for the per-channel circuit breaker."""

from repro.resilience.retry import BreakerState, CircuitBreaker


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0)
        for _ in range(3):
            assert breaker.allow(0.0)
            breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(5.0)
        assert breaker.rejected == 1

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(9.0)
        assert breaker.allow(10.0)  # probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.record_failure(10.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(15.0)
        assert breaker.allow(20.0)
