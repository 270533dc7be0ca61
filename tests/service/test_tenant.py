"""One tenant's pipeline: equivalence, supervision, conservation.

The tenant is a bounded pipeline run that never ends; these tests pin
the contract down: an unpressured tenant reproduces the serial path's
alerts exactly, a crashing tenant degrades by the supervisor rules
(dead-letter the poison record, restore from checkpoint, quarantine at
budget exhaustion with a final accounting snapshot), and the counters
partition every received record no matter what happened.
"""

import asyncio

import pytest

from repro.engine.path import AlertPath
from repro.service.config import ServiceConfig
from repro.service.tenant import Tenant
from repro.simulation.generator import generate_log

from ..conftest import SEED, SMALL_SCALE


def liberty_records(n=None):
    records = list(
        generate_log("liberty", scale=SMALL_SCALE, seed=SEED).records
    )
    return records if n is None else records[:n]


def roomy_config(**kw):
    kw.setdefault("max_buffer", 1 << 16)
    kw.setdefault("alert_tail", 1 << 16)
    return ServiceConfig(**kw)


async def run_tenant(tenant, records):
    tenant.start()
    for record in records:
        tenant.offer(record)
    await tenant.drain()
    return tenant


def conservation_ok(tenant):
    return tenant.counters.conserves(len(tenant.queue))


class TestEquivalence:
    def test_unpressured_tenant_matches_serial_path(self):
        """ACCEPTANCE (isolation baseline): with no pressure and no
        faults, a tenant's alert stream is the serial path's, exactly."""
        records = liberty_records()

        baseline = AlertPath("liberty")
        for record in records:
            if baseline.admit(record):
                baseline.process(record)

        async def main():
            tenant = Tenant("t", "liberty", roomy_config())
            return await run_tenant(tenant, records)

        tenant = asyncio.run(main())
        assert tenant.counters.processed == len(records)
        assert tenant.counters.shed == 0
        assert tenant.counters.alerts_raw == len(baseline.sink.raw_alerts)
        assert (
            tenant.counters.alerts_filtered
            == len(baseline.sink.filtered_alerts)
        )
        assert tenant.alert_tail == tuple(baseline.sink.raw_alerts)
        assert conservation_ok(tenant)

    def test_drain_takes_final_checkpoint(self):
        async def main():
            tenant = Tenant("t", "liberty", roomy_config())
            return await run_tenant(tenant, liberty_records(100))

        tenant = asyncio.run(main())
        assert tenant.checkpoint is not None
        assert tenant.checkpoint.records_consumed == tenant.counters.processed


class TestCrashSupervision:
    def crashy_config(self, crash_on, budget=3, **kw):
        """Crash the worker on specific record indices (by arrival)."""
        seen = {"n": 0}

        def hook(tenant_id, record):
            seen["n"] += 1
            if seen["n"] in crash_on:
                raise RuntimeError(f"injected crash #{seen['n']}")

        return roomy_config(
            fault_hook=hook, restart_budget=budget,
            breaker_threshold=100, **kw,
        )

    def test_crash_dead_letters_poison_record_and_continues(self):
        records = liberty_records(200)

        async def main():
            tenant = Tenant(
                "t", "liberty", self.crashy_config(crash_on={50})
            )
            return await run_tenant(tenant, records)

        tenant = asyncio.run(main())
        assert tenant.counters.crashes == 1
        assert not tenant.quarantined
        # The poison record is accounted (refused), the rest processed.
        assert tenant.counters.refused_by_reason.get("worker-crash") == 1
        assert tenant.counters.processed == len(records) - 1
        assert conservation_ok(tenant)

    def test_budget_exhaustion_quarantines_with_final_snapshot(self):
        records = liberty_records(100)

        async def main():
            tenant = Tenant(
                "t", "liberty",
                self.crashy_config(crash_on={10, 20, 30}, budget=2),
            )
            tenant.start()
            for record in records:
                tenant.offer(record)
            # Worker quarantines mid-stream; wait for it to settle.
            while not tenant.quarantined:
                await asyncio.sleep(0.001)
            await tenant.drain()
            # Late arrivals after quarantine are refused, not lost.
            tenant.offer(records[0])
            return tenant

        tenant = asyncio.run(main())
        assert tenant.quarantined
        assert tenant.counters.crashes == 3  # budget 2 + the fatal third
        assert tenant.final_dead_letters is not None
        reasons = dict(tenant.final_dead_letters.by_reason)
        assert reasons.get("worker-crash") == 3
        # Queued records at quarantine time were flushed with a reason,
        # and the post-quarantine offer was refused too.
        assert tenant.counters.refused_by_reason.get(
            "tenant-quarantined", 0
        ) >= 1
        assert conservation_ok(tenant)

    def test_restored_path_never_unreports_alerts(self):
        """Journaled alert counts are monotonic across crash-restores:
        a restart must not roll back alerts already reported."""
        records = liberty_records()

        async def main():
            config = self.crashy_config(
                crash_on={len(records) // 2}, checkpoint_every=50,
            )
            tenant = Tenant("t", "liberty", config)
            counts = []

            orig = tenant._rebuild_path

            def spying_rebuild():
                counts.append(tenant.counters.alerts_raw)
                orig()
                counts.append(tenant.counters.alerts_raw)

            tenant._rebuild_path = spying_rebuild
            await run_tenant(tenant, records)
            return tenant, counts

        tenant, counts = asyncio.run(main())
        assert counts, "crash did not trigger a rebuild"
        before, after = counts[0], counts[1]
        assert after == before  # rebuild preserved the journal
        assert tenant.counters.alerts_raw >= after


class TestCrashGranularity:
    """The worker drains by the batch; a crash still costs one record."""

    BATCH = 64

    def run_offered_up_front(self, tenant, records):
        """Everything queued before the worker's first turn, so batch
        ``k`` is ``records[64 * k:64 * (k + 1)]``."""

        async def main():
            tenant.offer_batch(records)
            tenant.start()
            await tenant.drain()
            return tenant

        return asyncio.run(main())

    def hooked(self, crash_on, budget=10):
        shown = []

        def hook(tenant_id, record):
            shown.append(record)
            if len(shown) in crash_on:
                raise RuntimeError(f"injected crash #{len(shown)}")

        config = roomy_config(
            fault_hook=hook, restart_budget=budget, breaker_threshold=100,
            service_batch=self.BATCH,
        )
        return config, shown

    @pytest.mark.parametrize("crash_on", [
        {1}, {64}, {10, 11}, {64, 65}, {1, 2, 63, 64, 128},
    ], ids=["first", "last", "adjacent", "across-batches", "many"])
    def test_hook_crash_costs_exactly_its_record(self, crash_on):
        records = liberty_records(200)
        config, shown = self.hooked(crash_on)

        async def build():
            return Tenant("t", "liberty", config)

        tenant = self.run_offered_up_front(asyncio.run(build()), records)
        poison = [records[i - 1] for i in sorted(crash_on)]
        assert shown == records  # once each, in order
        assert tenant.counters.crashes == len(poison)
        assert [
            letter.record for letter in tenant.dead_letters
            if letter.reason == "worker-crash"
        ] == poison
        assert tenant.counters.refused == len(poison)
        assert tenant.counters.processed == len(records) - len(poison)
        assert conservation_ok(tenant)
        # The path that survives saw what followed the last crash, once.
        survivors = len(records) - max(crash_on)
        assert tenant.path.consumed == survivors
        assert tenant.path.stats_collector.stats.messages == survivors

    def test_quarantine_mid_batch_refuses_the_rest(self):
        records = liberty_records(200)
        config, shown = self.hooked({5, 6, 7}, budget=2)

        async def build():
            return Tenant("t", "liberty", config)

        tenant = self.run_offered_up_front(asyncio.run(build()), records)
        assert tenant.quarantined
        assert tenant.counters.crashes == 3
        # Nothing behind the record that spent the budget is served, so
        # the hook is not shown it.
        assert shown == records[:7]
        assert tenant.counters.processed == 4
        reasons = tenant.counters.refused_by_reason
        assert reasons["worker-crash"] == 3
        assert reasons["tenant-quarantined"] == len(records) - 7
        letters = list(tenant.dead_letters)
        assert [letter.record for letter in letters] == records[4:]
        assert conservation_ok(tenant) and not tenant.queue
        assert dict(tenant.final_dead_letters.by_reason) == {
            "worker-crash": 3, "tenant-quarantined": len(records) - 7,
        }

    @pytest.mark.parametrize("budget", [10, 1])
    def test_exception_out_of_the_kernel_finds_its_record(self, budget):
        """A sink that raises on particular alerts: the batch kernel
        fails as a whole and names no record, so the path is rolled
        back and the run replayed through the per-record reference,
        which crashes on exactly the record whose alert raised."""
        records = liberty_records()
        tagger = AlertPath("liberty").tagger
        tagged = [i for i, r in enumerate(records) if tagger.match(r)]
        # Two in one batch, behind alerts of that batch; one in the last.
        busy = [i for i in tagged if i // self.BATCH == 58]
        poison_at = [busy[3], busy[5], tagged[-1]]
        poison = [records[i] for i in poison_at]

        class PoisonSink:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def emit_batch(self, pairs):
                for alert, kept in pairs:
                    if any(alert.record is p for p in poison):
                        raise RuntimeError("sink failed on this alert")
                    self.inner.emit_batch([(alert, kept)])

        class SinkPoisonedTenant(Tenant):
            def _install_sink(self, **seeds):
                super()._install_sink(**seeds)
                self.path.sink = PoisonSink(self.path.sink)

        async def build():
            return SinkPoisonedTenant("t", "liberty", roomy_config(
                restart_budget=budget, breaker_threshold=100,
                service_batch=self.BATCH, dead_letter_capacity=len(records),
            ))

        tenant = self.run_offered_up_front(asyncio.run(build()), records)
        crashes = min(len(poison), budget + 1)
        assert tenant.counters.crashes == crashes  # one per poison record
        assert [
            letter.record for letter in tenant.dead_letters
            if letter.reason == "worker-crash"
        ] == poison[:crashes]
        assert conservation_ok(tenant) and not tenant.queue
        if budget == 1:
            assert tenant.quarantined
            assert tenant.counters.processed == poison_at[1] - 1
            assert tenant.counters.refused == len(records) - poison_at[1] + 1
            return
        assert tenant.counters.processed == len(records) - 3
        # No record is observed twice by the path that survives.
        survivors = len(records) - poison_at[-1] - 1
        assert tenant.path.consumed == survivors
        assert tenant.path.stats_collector.stats.messages == survivors
        # At least once, never un-reported: what a failed kernel call
        # had journaled before it raised, its replay journals again.
        first, last = poison_at[0], poison_at[-1]
        again = sum(
            1 for i in tagged
            if i // self.BATCH == first // self.BATCH and i < first
            or i // self.BATCH == last // self.BATCH and i < last
        )
        assert tenant.counters.alerts_raw == len(tagged) - 3 + again


class TestBreaker:
    def test_breaker_opens_and_recovers(self):
        records = liberty_records(60)

        def hook(tenant_id, record):
            if hook.arm:
                raise RuntimeError("crash while armed")

        hook.arm = True
        config = roomy_config(
            fault_hook=hook, restart_budget=100,
            breaker_threshold=2, breaker_reset=0.05,
        )

        async def main():
            tenant = Tenant("t", "liberty", config)
            tenant.start()
            # Two crashing records open the breaker.
            for record in records[:2]:
                tenant.offer(record)
                await asyncio.sleep(0.01)
            while tenant.breaker_state != "open":
                await asyncio.sleep(0.001)
            # While open, arrivals are refused with circuit-open.
            tenant.offer(records[2])
            assert tenant.counters.refused_by_reason.get("circuit-open") == 1
            # After the reset timeout, a healthy stream closes it again.
            hook.arm = False
            await asyncio.sleep(0.06)
            for record in records[3:]:
                tenant.offer(record)
            await tenant.drain()
            return tenant

        tenant = asyncio.run(main())
        assert tenant.breaker_state == "closed"
        assert tenant.breaker.times_opened == 1
        assert conservation_ok(tenant)


class TestSheddingAndConservation:
    def test_flood_against_tiny_queue_conserves(self):
        """Offer faster than the worker can run: every record is shed
        with a class, spilled with a reason, queued, or processed."""
        records = liberty_records(500)
        config = ServiceConfig(max_buffer=8, service_batch=4)

        async def main():
            tenant = Tenant("t", "liberty", config)
            tenant.start()
            for record in records:  # no await: a genuine burst
                tenant.offer(record)
            assert tenant.counters.received == len(records)
            assert conservation_ok(tenant)  # mid-flight, queue non-empty
            await tenant.drain()
            return tenant

        tenant = asyncio.run(main())
        assert conservation_ok(tenant)
        assert tenant.counters.shed + tenant.counters.refused > 0
        # Tagged alerts were never silently shed: anything shed outright
        # is a chatter/duplicate class.
        assert "tagged-alert" not in tenant.counters.shed_by_class


class TestParkResume:
    def test_park_and_resume_preserves_accounting_and_state(self):
        records = liberty_records(400)
        config = roomy_config(idle_ttl=0.0)

        async def main():
            tenant = Tenant("t", "liberty", config)
            tenant.start()
            for record in records[:200]:
                tenant.offer(record)
            while tenant.counters.processed < 200:
                await asyncio.sleep(0.001)
            assert tenant.evictable(tenant.last_activity + 1.0)
            parked = tenant.park()

            resumed = Tenant("t", "liberty", config, parked=parked)
            await run_tenant(resumed, records[200:])
            return resumed

        resumed = asyncio.run(main())
        assert resumed.counters.processed == len(records)
        assert resumed.counters.evictions == 1
        assert resumed.counters.resumes == 1
        assert conservation_ok(resumed)

        # Alert totals match an uninterrupted run.
        async def uninterrupted():
            tenant = Tenant("u", "liberty", roomy_config())
            return await run_tenant(tenant, records)

        baseline = asyncio.run(uninterrupted())
        assert resumed.counters.alerts_raw == baseline.counters.alerts_raw
        assert (
            resumed.counters.alerts_filtered
            == baseline.counters.alerts_filtered
        )

    def test_quarantined_tenant_is_not_evictable(self):
        def hook(tenant_id, record):
            raise RuntimeError("always")

        config = roomy_config(
            fault_hook=hook, restart_budget=0, idle_ttl=0.0,
        )

        async def main():
            tenant = Tenant("t", "liberty", config)
            tenant.start()
            tenant.offer(liberty_records(1)[0])
            while not tenant.quarantined:
                await asyncio.sleep(0.001)
            await tenant.drain()
            return tenant

        tenant = asyncio.run(main())
        assert not tenant.evictable(tenant.last_activity + 9999.0)
