"""Envelope protocol, native-line dispatch, and global governance."""

import pytest

from repro.logio.writer import renderer_for
from repro.resilience.backpressure import SUSTAIN, PressureLevel
from repro.resilience.shedding import SHED_DECISIONS
from repro.service.config import ServiceConfig
from repro.service.router import (
    MemoryGovernor,
    format_envelope,
    parse_envelope,
    parse_native_line,
)
from repro.simulation.generator import generate_log
from repro.systems.specs import SYSTEMS

from ..conftest import SEED, SMALL_SCALE


class TestEnvelope:
    def test_round_trip(self):
        line = format_envelope("acme", "liberty", "native payload here")
        assert parse_envelope(line) == ("acme", "liberty", "native payload here")

    @pytest.mark.parametrize("line", [
        "no envelope at all",
        "@missing-colon rest",
        "@:nosystem rest",
        "@notenant: rest",
        "@acme:liberty",      # no space, no payload
        "",
    ])
    def test_malformed(self, line):
        assert parse_envelope(line) is None

    def test_payload_may_contain_at_and_colon(self):
        tenant, system, rest = parse_envelope(
            "@t:bgl body with @signs and :colons"
        )
        assert (tenant, system) == ("t", "bgl")
        assert rest == "body with @signs and :colons"


class TestNativeDispatch:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_all_five_dialects_round_trip(self, system):
        """Rendered native lines parse back in every dialect — the
        service understands exactly what the writers emit."""
        render = renderer_for(system)
        records = list(
            generate_log(system, scale=SMALL_SCALE, seed=SEED).records
        )[:50]
        assert records
        for record in records:
            parsed = parse_native_line(render(record), system, year=2005)
            assert parsed.system == system or parsed.corrupted
            assert not parsed.corrupted


class TestMemoryGovernor:
    def make(self):
        return MemoryGovernor(ServiceConfig(global_queue_budget=100))

    def test_levels_with_hysteresis(self):
        gov = self.make()
        assert gov.sample(10) == PressureLevel.NORMAL
        assert gov.sample(80) == PressureLevel.ELEVATED
        # Between low (50) and high (80): stays elevated (hysteresis).
        assert gov.sample(60) == PressureLevel.ELEVATED
        assert gov.sample(100) == PressureLevel.CRITICAL
        assert gov.sample(60) == PressureLevel.ELEVATED
        assert gov.sample(10) == PressureLevel.NORMAL

    def test_degraded_latches_after_sustain_and_clears(self):
        gov = self.make()
        for _ in range(SUSTAIN - 1):
            gov.sample(90)
        assert not gov.degraded
        gov.sample(90)
        assert gov.degraded
        # A brief dip does not clear it...
        gov.sample(0)
        assert gov.degraded
        gov.sample(90)
        for _ in range(SUSTAIN - 1):
            gov.sample(0)
        assert gov.degraded
        gov.sample(0)
        assert not gov.degraded
        assert gov.degraded_entered == 1


class TestServiceConfig:
    def test_unknown_shed_policy_is_refused(self):
        """Accepted, a bad name raised inside every tenant's first
        ``ingest_lines``: the line was counted in ``lines_seen`` but
        neither routed nor dead-lettered."""
        for name in SHED_DECISIONS:
            assert ServiceConfig(shed_policy=name).shed_policy == name
        with pytest.raises(ValueError, match="unknown shed policy 'bogus'"):
            ServiceConfig(shed_policy="bogus")
