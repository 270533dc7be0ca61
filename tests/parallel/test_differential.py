"""Differential equivalence: parallel output must equal serial output.

Sharding the tagger is licensed by the per-record independence of rule
matching (Liang et al. filter per-node partitions independently); the
danger the ISSUE names is *silent semantic drift* between the serial and
parallel paths.  These property-based tests generate adversarial
multi-category log streams — chatter, real alerts from several sources,
truncated/corrupted records, records that crash the rules engine,
structurally invalid records — and assert the two paths agree on
everything observable: alerts, order, categories, filter survivors,
volume statistics, severity cross-tabs, and dead-letter accounting,
across worker counts and batch sizes.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api as pipeline
from repro.core.filtering import log_filter
from repro.core.tagging import RulesetHandle, Tagger
from repro.logmodel.record import LogRecord
from repro.parallel import ParallelConfig, chunked
from repro.resilience.deadletter import DeadLetterQueue

SYSTEM = "liberty"
RULESET = RulesetHandle(SYSTEM).resolve()

#: Bodies that tag (one per category with an example), whole and
#: truncated; chaff that never tags; and a body that crashes the engine.
ALERT_BODIES = [cat.example for cat in RULESET if cat.example]
TRUNCATED_BODIES = [body[: max(4, len(body) // 2)] for body in ALERT_BODIES]
CHAFF_BODIES = [
    "session opened for user root",
    "synchronized to time server",
    "routine health check ok",
    "",
]
FACILITIES = [cat.facility for cat in RULESET] + ["kernel", ""]


@st.composite
def record_streams(draw, max_size=160):
    """Time-ordered streams mixing alerts, chaff, corruption, and junk."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    # Interarrival gaps straddle the T=5s threshold so the filter's
    # clear-table logic is exercised, not just pass-through.
    gaps = draw(st.lists(
        st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
        min_size=n, max_size=n,
    ))
    kinds = draw(st.lists(
        st.sampled_from(["alert", "truncated", "chaff", "crash", "invalid"]),
        min_size=n, max_size=n,
    ))
    picks = draw(st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=n, max_size=n,
    ))
    records = []
    t = 1_000_000.0
    for gap, kind, pick in zip(gaps, kinds, picks):
        t += gap
        source = f"n{pick % 7}"
        if kind == "alert":
            cat = RULESET.categories[pick % len(RULESET.categories)]
            records.append(LogRecord(
                timestamp=t, source=source, facility=cat.facility,
                body=cat.example or "unit event", system=SYSTEM,
            ))
        elif kind == "truncated":
            body = TRUNCATED_BODIES[pick % len(TRUNCATED_BODIES)]
            records.append(LogRecord(
                timestamp=t, source=source,
                facility=FACILITIES[pick % len(FACILITIES)],
                body=body, system=SYSTEM, corrupted=True,
            ))
        elif kind == "chaff":
            records.append(LogRecord(
                timestamp=t, source=source, facility="kernel",
                body=CHAFF_BODIES[pick % len(CHAFF_BODIES)], system=SYSTEM,
            ))
        elif kind == "crash":
            # Non-string body, no facility prefix: the regex engine
            # raises inside whichever process tags it.
            records.append(LogRecord(
                timestamp=t, source=source, facility="",
                body=pick, system=SYSTEM, corrupted=True,
            ))
        else:  # invalid: fails the structural admission check
            records.append(LogRecord(
                timestamp=float("nan"), source=source, facility="kernel",
                body="bad timestamp", system=SYSTEM, corrupted=True,
            ))
    return records


WORKER_COUNTS = st.sampled_from([1, 2, 3])
BATCH_SIZES = st.sampled_from([1, 3, 17, 64])


def _assert_results_equal(serial, parallel, serial_dlq, parallel_dlq):
    assert parallel.raw_alerts == serial.raw_alerts
    assert parallel.filtered_alerts == serial.filtered_alerts
    assert [a.category for a in parallel.raw_alerts] == \
        [a.category for a in serial.raw_alerts]
    assert parallel.category_counts() == serial.category_counts()
    assert parallel.stats.messages == serial.stats.messages
    assert parallel.stats.raw_bytes == serial.stats.raw_bytes
    assert parallel.stats.compressed_bytes == serial.stats.compressed_bytes
    assert parallel.corrupted_messages == serial.corrupted_messages
    assert parallel.severity_tab.messages == serial.severity_tab.messages
    assert parallel.severity_tab.alerts == serial.severity_tab.alerts
    assert parallel_dlq.by_reason == serial_dlq.by_reason
    assert parallel_dlq.quarantined == serial_dlq.quarantined


class TestPipelineDifferential:
    """run_stream(serial) vs run_stream(parallel=...) — full results."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=record_streams(), workers=WORKER_COUNTS,
           batch_size=BATCH_SIZES)
    def test_full_pipeline_equivalence(self, records, workers, batch_size):
        serial_dlq = DeadLetterQueue()
        serial = pipeline.run_stream(list(records), SYSTEM,
                                     dead_letters=serial_dlq)
        parallel_dlq = DeadLetterQueue()
        parallel = pipeline.run_stream(
            list(records), SYSTEM, dead_letters=parallel_dlq,
            parallel=ParallelConfig(workers=workers, batch_size=batch_size),
        )
        _assert_results_equal(serial, parallel, serial_dlq, parallel_dlq)

    def test_equivalence_on_generated_system_logs(self, env_workers):
        """The synthetic five-system substrate, not just ad-hoc streams:
        a full generated liberty log through both paths."""
        serial = pipeline.run_system(SYSTEM, scale=2e-5, seed=99)
        parallel = pipeline.run_system(
            SYSTEM, scale=2e-5, seed=99,
            parallel=ParallelConfig(workers=env_workers, batch_size=256),
        )
        _assert_results_equal(
            serial, parallel, DeadLetterQueue(), DeadLetterQueue()
        )

    def test_parallel_filtered_matches_log_filter(self, env_workers):
        """The functional identity the ISSUE names: parallel filtered
        output == ``log_filter`` over the serially tagged alert stream."""
        result = pipeline.run_system(
            SYSTEM, scale=2e-5, seed=41,
            parallel=ParallelConfig(workers=env_workers, batch_size=128),
        )
        serial = pipeline.run_system(SYSTEM, scale=2e-5, seed=41)
        assert result.raw_alerts == serial.raw_alerts
        assert result.filtered_alerts == list(log_filter(serial.raw_alerts))


class TestTaggerDifferential:
    """ShardedTagger vs Tagger on the shared long-lived pool: cheap per
    example, so this property gets the wide sweep."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=record_streams(max_size=120),
           batch_size=BATCH_SIZES)
    def test_tag_stream_equivalence(self, liberty_sharded, records,
                                    batch_size):
        # Strip the records that crash the engine: the serial baseline
        # raises on them without a queue, and the quarantine equivalence
        # is covered by the pipeline-level property above.
        safe = [r for r in records if isinstance(r.body, str)]
        serial = list(Tagger(RULESET).tag_stream(safe))
        outcomes = liberty_sharded.tag_batches(chunked(safe, batch_size))
        parallel = [
            alert for _, outcome in outcomes for _, alert in outcome.hits
        ]
        assert parallel == serial

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=record_streams(max_size=80))
    def test_batch_outcomes_conserve_records(self, liberty_sharded, records):
        safe = [r for r in records if isinstance(r.body, str)]
        total = sum(
            outcome.size
            for _, outcome in liberty_sharded.tag_batches(chunked(safe, 13))
        )
        assert total == len(safe)
