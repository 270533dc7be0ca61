"""Envelope protocol, native-line dispatch, and global governance."""

import asyncio
import calendar
import time

import pytest

from repro.core.tagging import RulesetHandle
from repro.logio.writer import renderer_for
from repro.resilience.backpressure import SUSTAIN, PressureLevel
from repro.resilience.shedding import SHED_DECISIONS
from repro.service.config import ServiceConfig
from repro.service.router import (
    MemoryGovernor,
    TenantRouter,
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


#: The last minute of 2005 and the first of 2006.
DEC_31 = float(calendar.timegm((2005, 12, 31, 23, 59, 0)))
JAN_1 = float(calendar.timegm((2006, 1, 1, 0, 1, 0)))


def liberty_alert_lines():
    """One generated Liberty alert, stamped Dec 31 23:59:00 and
    Jan  1 00:01:00, as ``@acme:liberty`` wire lines."""
    tagger = RulesetHandle("liberty").tagger()
    alert = next(
        record
        for record in generate_log("liberty", scale=SMALL_SCALE, seed=SEED).records
        if not record.corrupted and tagger.tag(record) is not None
    )
    render = renderer_for("liberty")
    return [
        format_envelope("acme", "liberty", render(alert._replace(timestamp=t)))
        for t in (DEC_31, JAN_1)
    ]


async def settled(router, tenant_id, received):
    deadline = asyncio.get_running_loop().time() + 10.0
    while (
        tenant_id not in router.tenants
        or router.tenants[tenant_id].counters.received < received
        or router.tenants[tenant_id].queue
    ):
        assert asyncio.get_running_loop().time() < deadline, "never settled"
        await asyncio.sleep(0.005)


class TestNewYear:
    """A tenant's lines are one stream: its January lines are next
    year's, as in a file read, not a year before its December ones."""

    def test_alerts_after_new_year_are_not_dead_lettered(self):
        async def main():
            router = TenantRouter(ServiceConfig(year=2005))
            router.ingest_lines(liberty_alert_lines())
            await router.drain()
            return router.tenants["acme"]

        tenant = asyncio.run(main())
        assert tenant.counters.received == tenant.counters.processed == 2
        assert tenant.counters.alerts_raw == 2
        assert len(tenant.dead_letters) == 0
        assert [a.timestamp for a in tenant.alert_tail] == [DEC_31, JAN_1]

    @pytest.mark.parametrize("restart", [False, True], ids=["unpark", "restart"])
    def test_a_tenant_brought_back_continues_its_year(self, tmp_path, restart):
        """Parked (or its service restarted) in December, brought back by
        a January line: the year comes from its restored last stamp."""
        december, january = liberty_alert_lines()
        config = ServiceConfig(
            year=2005, state_dir=str(tmp_path / "state"), checkpoint_every=1,
        )

        async def main():
            router = TenantRouter(config)
            router.ingest_line(december)
            await settled(router, "acme", 1)
            if restart:
                # The kill: only the durable checkpoint of the drained
                # batch reaches the next process.
                router = TenantRouter(config)
            else:
                now = time.monotonic() + config.idle_ttl + 1
                assert router.evict_idle(now=now) == ["acme"]
            assert "acme" in router.parked
            router.ingest_line(january)
            await router.drain()
            return router.tenants["acme"]

        tenant = asyncio.run(main())
        assert tenant.counters.resumes == 1
        assert tenant.counters.alerts_raw == 2
        assert len(tenant.dead_letters) == 0
        assert [a.timestamp for a in tenant.alert_tail] == [DEC_31, JAN_1]
