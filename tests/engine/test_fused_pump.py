"""The bounded pump's fused ticks against its own tick loop.

A pausable bounded run whose arrivals fit in one drain serves a run of
uneventful ticks as one kernel batch and advances the per-tick tallies
by the tick count.  The reference is the same stream through an
unpausable config with the same buffer, ticks of the size the credits
would grant and the same drain: it never fuses, and with ticks no larger
than the high watermark it never sheds either.  Everything but the
credits (which an unpausable source never asks for) must match — the
result, the dead letters and their order, the overload report and every
checkpoint — and the credits must be what one request per tick makes
them.  Resumed from their latest checkpoints, the two runs must still
match, and the fused one must land where it landed uninterrupted.
"""

from __future__ import annotations

import dataclasses
import functools
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import get_ruleset
from repro.engine.drivers import BoundedDriver
from repro.engine.path import AlertPath
from repro.logio.reader import read_log
from repro.resilience.backpressure import BackpressureConfig, BoundedQueue
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.deadletter import (
    DeadLetterQueue,
    REASON_INVALID_RECORD,
    REASON_OUT_OF_ORDER,
    REASON_TAGGER_ERROR,
)

from .conftest import (
    ALL_SYSTEMS,
    GOLDEN_DIR,
    letter_trace,
    load_expected,
    result_signature,
)
from .test_batch_flow import PoisonTagger, inject


class KeepEvery:
    """A checkpoint store that keeps every snapshot it is handed."""

    status = None

    def __init__(self):
        self.saved = []

    def save(self, checkpoint):
        self.saved.append(checkpoint)
        return True


def longer(records, copies):
    """``copies`` back-to-back replays of ``records``, each shifted past
    the last, so the stream outgrows one fused batch."""
    span = records[-1].timestamp - records[0].timestamp + 3600.0
    return [
        r._replace(timestamp=r.timestamp + k * span)
        for k in range(copies) for r in records
    ]


def run(system, config, stream, every, resume_from=None):
    path = AlertPath(
        system, dead_letters=DeadLetterQueue(), resume_from=resume_from,
        tagger=PoisonTagger(get_ruleset(system)),
    )
    store = KeepEvery()
    manager = None
    if every is not None:
        manager = CheckpointManager(every=every, store=store)
        manager.prime(resume_from)
    skip = resume_from.records_consumed if resume_from is not None else 0
    report = BoundedDriver(config).run(
        islice(iter(stream), skip, None), path, manager
    ).overload
    return path, report, store.saved, manager


def observable(path):
    return (
        result_signature(path.result()),
        path.consumed,
        letter_trace(path.dead_letters),
    )


def without_credits(state):
    queue = dict(state["queue"], credits_requested=0, credits_withheld=0)
    return {**state, "queue": queue}


def barriers(checkpoints):
    return [
        (c.records_consumed, without_credits(c.overload_state), c.shed_state)
        for c in checkpoints
    ]


faults = st.lists(
    st.tuples(
        st.integers(0, 5000),
        st.sampled_from(
            [REASON_INVALID_RECORD, REASON_TAGGER_ERROR, REASON_OUT_OF_ORDER]
        ),
    ),
    max_size=6,
)


def same_run(got, want, arrival_batch, grant):
    """Everything but the credits matches, and the credits are one
    request of ``arrival_batch`` per tick, ``grant`` of it granted."""
    (path, report, saved, _), (want_path, want_report, want_saved, _) = got, want
    assert observable(path) == observable(want_path)
    assert report.total_shed == report.total_spilled == 0
    assert dataclasses.replace(
        report, credits_requested=0, credits_withheld=0
    ) == want_report
    assert barriers(saved) == barriers(want_saved)
    ledgers = [c.overload_state["queue"] for c in saved] + [{
        "samples": report.samples,
        "credits_requested": report.credits_requested,
        "credits_withheld": report.credits_withheld,
    }]
    for ledger in ledgers:
        ticks = ledger["samples"]
        assert ledger["credits_requested"] == ticks * arrival_batch
        assert ledger["credits_withheld"] == ticks * (arrival_batch - grant)


@functools.lru_cache(maxsize=None)
def golden(system):
    return list(read_log(
        GOLDEN_DIR / f"{system}.log", system,
        year=load_expected(system)["year"],
    ))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    system=st.sampled_from(ALL_SYSTEMS),
    copies=st.integers(1, 12),
    max_buffer=st.one_of(st.integers(1, 100), st.sampled_from([1024, 8192])),
    arrival_batch=st.integers(1, 160),
    extra_service=st.integers(0, 100),
    every=st.one_of(st.none(), st.integers(1, 3000)),
    fault_list=faults,
)
def test_fused_ticks_equal_the_tick_loop(
    system, copies, max_buffer, arrival_batch, extra_service, every,
    fault_list,
):
    stream = inject(longer(golden(system), copies), fault_list)
    service_batch = arrival_batch + extra_service
    fused_config = BackpressureConfig(
        max_buffer=max_buffer, arrival_batch=arrival_batch,
        service_batch=service_batch,
    )
    grant = min(arrival_batch, BoundedQueue("ingest", max_buffer).high)
    tick_config = BackpressureConfig(
        max_buffer=max_buffer, arrival_batch=grant,
        service_batch=service_batch, source_pausable=False,
    )
    fused = run(system, fused_config, stream, every)
    ticked = run(system, tick_config, stream, every)
    same_run(fused, ticked, arrival_batch, grant)

    latest = fused[3].latest if every is not None else None
    if latest is not None:
        resumed = run(system, fused_config, stream, every, resume_from=latest)
        resumed_ticked = run(
            system, tick_config, stream, every, resume_from=ticked[3].latest
        )
        same_run(resumed, resumed_ticked, arrival_batch, grant)
        assert observable(resumed[0]) == observable(fused[0])
        later = [
            c for c in fused[2] if c.records_consumed > latest.records_consumed
        ]
        assert barriers(resumed[2]) == barriers(later)
