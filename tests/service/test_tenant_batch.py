"""A tenant fed and drained by the batch, against the per-record
reference.

Lines reach a tenant by the run (``offer_batch``), are tagged once at
the door, and are drained through the batch kernel; none of that may be
observable.  For any partition of a stream into offers and any
``service_batch`` the tenant must land exactly where the
``admit``/``process`` loop lands — faults, their dead letters and their
order included; under pressure a run offered at once must be shed,
spilled and queued exactly as the same records offered one by one; and
the rules engine must be asked about each received line once.
"""

import asyncio
import random

import pytest

from repro.core.rules import get_ruleset
from repro.logio.writer import renderer_for
from repro.resilience.deadletter import (
    DeadLetterQueue,
    REASON_INVALID_RECORD,
    REASON_OUT_OF_ORDER,
    REASON_TAGGER_ERROR,
)
from repro.resilience.shedding import SHED_DECISIONS
from repro.service.config import ServiceConfig
from repro.service.router import TenantRouter, format_envelope
from repro.service.tenant import Tenant

from ..engine.conftest import (
    ALL_SYSTEMS,
    golden_records,  # noqa: F401  (the session fixture)
    letter_trace,
    load_expected,
    reference_path,
    result_signature,
)
from ..engine.test_batch_flow import CountingTagger, PoisonTagger, inject
from .test_tenant import roomy_config

FAULTS = [
    (20, REASON_INVALID_RECORD), (21, REASON_TAGGER_ERROR),
    (50, REASON_OUT_OF_ORDER), (64, REASON_TAGGER_ERROR),
    (65, REASON_INVALID_RECORD), (130, REASON_TAGGER_ERROR),
    (131, REASON_TAGGER_ERROR), (200, REASON_OUT_OF_ORDER),
    (201, REASON_INVALID_RECORD), (330, REASON_TAGGER_ERROR),
]


def partitions(stream, rng, longest=150):
    at = 0
    while at < len(stream):
        size = rng.randint(1, longest)
        yield stream[at:at + size]
        at += size


def observable(path):
    """A path's result past its alert lists: a tenant's alerts are its
    tail and counters, compared beside this."""
    signature = result_signature(path.result())
    del signature["raw_alerts"], signature["filtered_alerts"]
    return signature, path.consumed, letter_trace(path.dead_letters)


@pytest.mark.parametrize("service_batch", [1, 7, 64])
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_any_partition_equals_the_reference(
    golden_records, system, service_batch  # noqa: F811
):
    stream = inject(golden_records[system], FAULTS)
    want = reference_path(
        system, stream, dead_letters=DeadLetterQueue(),
        tagger=PoisonTagger(get_ruleset(system)),
    )
    rng = random.Random(service_batch)

    async def main():
        tenant = Tenant(
            "t", system, roomy_config(service_batch=service_batch)
        )
        tenant.path.tagger = PoisonTagger(get_ruleset(system))
        tenant.start()
        for run in partitions(stream, rng):
            tenant.offer_batch(run)
            assert tenant.counters.conserves(len(tenant.queue))
            if rng.random() < 0.5:  # sometimes the worker gets a turn
                await asyncio.sleep(0)
        await tenant.drain()
        return tenant

    tenant = asyncio.run(main())
    assert observable(tenant.path) == observable(want)
    assert tenant.counters.processed == len(stream)
    assert tenant.counters.shed == tenant.counters.refused == 0
    assert tenant.alert_tail == tuple(want.sink.raw_alerts)
    assert tenant.counters.alerts_raw == len(want.sink.raw_alerts)
    assert tenant.counters.alerts_filtered == len(want.sink.filtered_alerts)
    assert tenant.checkpoint.records_consumed == len(stream)
    assert tenant.counters.conserves(0)


@pytest.mark.parametrize("policy", sorted(SHED_DECISIONS))
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_offer_batch_sheds_as_offers_one_by_one(
    golden_records, system, policy  # noqa: F811
):
    """No worker progress between offers, a 64-slot queue: every shed
    decision of the run must see the queue depth it would have seen
    arriving alone."""
    stream = inject(golden_records[system], FAULTS)[:600]
    config = ServiceConfig(max_buffer=64, shed_policy=policy)

    def state(tenant):
        assert tenant.counters.conserves(len(tenant.queue))
        return (
            tenant.counters.as_dict(),
            tenant.policy.state_dict(),
            [(id(r), v) for r, v in tenant.queue._items],
            letter_trace(tenant.dead_letters),
        )

    async def main():
        by_run = Tenant("t", system, config)
        one_by_one = Tenant("t", system, config)
        for tenant in (by_run, one_by_one):
            tenant.path.tagger = PoisonTagger(get_ruleset(system))
        for run in partitions(stream, random.Random(7)):
            by_run.offer_batch(run)
            for record in run:
                one_by_one.offer(record)
            assert state(by_run) == state(one_by_one)
        return by_run

    tenant = asyncio.run(main())
    assert len(tenant.queue) == 64
    assert tenant.counters.shed + tenant.counters.refused == len(stream) - 64
    assert "tagged-alert" not in tenant.counters.shed_by_class


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_one_match_per_received_line(golden_records, system):  # noqa: F811
    """The door's verdict is the only match a line ever gets (it was
    two: one to class it for shedding, one to tag it at the drain)."""
    render = renderer_for(system)
    wire = [
        format_envelope("t", system, render(record))
        for record in golden_records[system]
    ]

    async def main():
        router = TenantRouter(roomy_config(year=load_expected(system)["year"]))
        tenant = router._materialize("t", system)
        tenant.path.tagger = CountingTagger(get_ruleset(system))
        for run in partitions(wire, random.Random(3), longest=500):
            router.ingest_lines(run)
            await asyncio.sleep(0)
        await router.drain()
        return router, tenant

    router, tenant = asyncio.run(main())
    assert router.lines_seen == tenant.counters.received == len(wire)
    assert tenant.counters.processed == len(wire)
    assert tenant.path.tagger.texts_matched == len(wire)


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_each_served_record_is_checked_once(
    golden_records, system, monkeypatch  # noqa: F811
):
    """The drain checks each record's structure once and hands the
    kernel the verdict; the kernel does not check the same records
    again."""
    import repro.engine.path as engine_path

    checked = []
    check = engine_path._valid_record

    def counting(record):
        checked.append(record)
        return check(record)

    monkeypatch.setattr(engine_path, "_valid_record", counting)
    records = golden_records[system]

    async def main():
        tenant = Tenant("t", system, roomy_config())
        tenant.start()
        for run in partitions(records, random.Random(3)):
            tenant.offer_batch(run)
        await tenant.drain()
        return tenant

    tenant = asyncio.run(main())
    assert tenant.counters.processed == len(records)
    assert len(checked) == len(records)
