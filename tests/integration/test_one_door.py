"""The bounded driver and a service tenant admit through one door.

Both own a :class:`~repro.resilience.shedding.BoundedIngest`; what
differs is what each does with what the door refuses.  Driven through
the same burst, tick for tick, they must therefore lose exactly the same
records: the same per-class sheds, the same spills in the same order,
the same duplicate lookback left behind.
"""

from collections import Counter

import pytest

from repro import api as pipeline
from repro.core.filtering import DEFAULT_THRESHOLD
from repro.resilience.backpressure import BackpressureConfig
from repro.resilience.deadletter import REASON_SHED_OVERLOAD
from repro.resilience.shedding import SHED_DECISIONS, ShedPolicy
from repro.service.config import ServiceConfig
from repro.service.tenant import Tenant

from ..engine.conftest import (
    ALL_SYSTEMS,
    golden_records,  # noqa: F401  (the session fixture)
    letter_trace,
)

ARRIVAL, SERVICE, BUFFER = 320, 32, 64


@pytest.mark.parametrize("policy_name", sorted(SHED_DECISIONS))
@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_driver_and_tenant_lose_the_same_records(
    golden_records, system, policy_name  # noqa: F811
):
    records = golden_records[system]

    # The driver's policy as an instance, so the test can read its state.
    policy = ShedPolicy(policy_name, dedup_window=DEFAULT_THRESHOLD)
    result = pipeline.run_stream(
        iter(records), system,
        backpressure=BackpressureConfig.burst(
            factor=ARRIVAL / SERVICE, service_batch=SERVICE,
            max_buffer=BUFFER, shed_policy=policy,
        ),
    )
    overload = result.overload

    # A never-started tenant, pumped by hand on the driver's schedule.
    tenant = Tenant("t", system, ServiceConfig(
        max_buffer=BUFFER, service_batch=SERVICE, shed_policy=policy_name,
    ))
    for at in range(0, len(records), ARRIVAL):
        tenant.offer_batch(records[at:at + ARRIVAL])
        tenant._serve(tenant.queue.take(SERVICE))
        assert tenant.counters.conserves(len(tenant.queue))
    while tenant.queue:
        tenant._serve(tenant.queue.take(SERVICE))
    counters = tenant.counters
    assert counters.conserves(0)

    assert overload.total_shed + overload.total_spilled > 0  # a real burst
    assert counters.shed_by_class == overload.shed_by_class
    spilled = Counter(letter.detail for letter in tenant.dead_letters)
    assert spilled == overload.spilled_by_class
    assert counters.refused_by_reason.get(REASON_SHED_OVERLOAD, 0) \
        == overload.total_spilled \
        == result.dead_letters.by_reason.get(REASON_SHED_OVERLOAD, 0)
    assert letter_trace(tenant.dead_letters) \
        == letter_trace(result.dead_letters)
    assert tenant.policy.state_dict() == policy.state_dict()
    assert counters.processed == result.stats.messages
    assert counters.alerts_raw == result.raw_alert_count
    assert counters.alerts_filtered == len(result.filtered_alerts)
