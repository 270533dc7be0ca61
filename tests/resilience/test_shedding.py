"""Unit tests for the shed decision table and the door."""

from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categories import Alert
from repro.core.rules import get_ruleset
from repro.core.tagging import BatchOutcome, Tagger
from repro.logio.reader import read_log
from repro.logmodel.record import LogRecord
from repro.resilience.backpressure import (
    KEEP,
    SHED,
    SPILL,
    BackpressureConfig,
    OverloadReport,
    PressureLevel,
)
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.shedding import (
    CLASS_ALERT,
    CLASS_CHATTER,
    CLASS_DUPLICATE,
    SHED_DECISIONS,
    BoundedIngest,
    ShedPolicy,
)

from ..engine.conftest import ALL_SYSTEMS, GOLDEN_DIR, load_expected


@pytest.fixture(scope="module")
def tagger():
    return Tagger(get_ruleset("liberty"))


@pytest.fixture(scope="module")
def make_alert_record(tagger):
    """A factory for records some liberty rule verifiably tags."""
    import numpy as np

    rng = np.random.default_rng(7)
    for category in tagger.ruleset:
        candidate = LogRecord(
            timestamp=0.0, source="n1", facility=category.facility,
            body=category.make_body(rng),
        )
        if tagger.match(candidate) is not None:
            def factory(t, _cat=category, _body=candidate.body):
                return LogRecord(timestamp=t, source="n1",
                                 facility=_cat.facility, body=_body)

            return factory
    raise AssertionError("no liberty category matches its own body")


def in_order(classes):
    """Counts by class, in first-occurrence order: what the door returns
    for the classes it offered and shed."""
    return list(Counter(classes).items())


def _record(t, body):
    return LogRecord(timestamp=t, source="n1", facility="kernel", body=body)


def _classify(policy, tagger, record):
    return policy.classify(record, tagger.tag(record))


def _decide(policy, tagger, record, level):
    return policy.decide(record, level, tagger.tag(record))


class TestClassification:
    def test_chatter_vs_alert(self, tagger, make_alert_record):
        policy = ShedPolicy("priority", dedup_window=5.0)
        assert _classify(policy, tagger, _record(0.0, "healthd: uneventful")) \
            == CLASS_CHATTER
        assert _classify(policy, tagger, make_alert_record(100.0)) == CLASS_ALERT

    def test_repeat_within_window_is_duplicate(self, tagger, make_alert_record):
        policy = ShedPolicy("priority", dedup_window=5.0)
        assert _classify(policy, tagger, make_alert_record(0.0)) == CLASS_ALERT
        assert _classify(policy, tagger, make_alert_record(2.0)) \
            == CLASS_DUPLICATE
        # Beyond the window the category is fresh again.
        assert _classify(policy, tagger, make_alert_record(20.0)) == CLASS_ALERT

    def test_backwards_timestamp_is_not_duplicate(self, tagger, make_alert_record):
        policy = ShedPolicy("priority", dedup_window=5.0)
        _classify(policy, tagger, make_alert_record(10.0))
        assert _classify(policy, tagger, make_alert_record(3.0)) == CLASS_ALERT


@pytest.mark.parametrize("system", ALL_SYSTEMS)
@pytest.mark.parametrize("level", list(PressureLevel))
@pytest.mark.parametrize("policy_name", sorted(SHED_DECISIONS))
def test_told_the_verdict_equals_matching_it(policy_name, level, system):
    """The door is told a whole run's verdicts as one batch outcome;
    that must choose exactly what matching and deciding record by
    record chooses — class, decision and the duplicate lookback it
    leaves."""
    records = list(read_log(
        GOLDEN_DIR / f"{system}.log", system, year=load_expected(system)["year"]
    ))
    system_tagger = Tagger(get_ruleset(system))
    matching = ShedPolicy(policy_name, dedup_window=5.0)
    decisions = [
        (r, *matching.decide(r, level, system_tagger.tag(r))) for r in records
    ]
    # Room for every record: the queue itself never raises the pressure.
    told = BoundedIngest("door", BackpressureConfig(
        max_buffer=10 * len(records), shed_policy=policy_name,
    ), threshold=5.0)
    offered, shed, refused = told.offer(
        records, system_tagger.tag_batch(records), floor=level
    )
    assert in_order(offered) == in_order(klass for _, _, klass in decisions)
    assert in_order(shed) \
        == in_order(klass for _, verb, klass in decisions if verb == SHED)
    assert [(r, klass) for r, _, klass in refused] \
        == [(r, klass) for r, verb, klass in decisions if verb == SPILL]
    assert [r for r, _ in told.queue.take(len(records))] \
        == [r for r, verb, _ in decisions if verb == KEEP]
    assert told.policy.state_dict() == matching.state_dict() != {}


class TestToldVerdict:
    def test_tagger_error_is_unclassifiable(self, make_alert_record):
        """What the rules engine failed on may spill, never be shed,
        and leaves the duplicate lookback alone."""
        policy = ShedPolicy("priority", dedup_window=5.0)
        error = repr(RuntimeError("regex engine fell over"))
        for level, decision in (
            (PressureLevel.NORMAL, KEEP), (PressureLevel.ELEVATED, KEEP),
            (PressureLevel.CRITICAL, SPILL),
        ):
            assert policy.decide(make_alert_record(0.0), level, error) \
                == (decision, CLASS_ALERT)
        assert policy.state_dict() == {}

    def test_no_verdict_is_chatter_even_unbound(self):
        policy = ShedPolicy("priority")
        assert policy.decide(_record(0.0, "x"), PressureLevel.ELEVATED, None) \
            == (SHED, CLASS_CHATTER)


class TestPriorityPolicy:
    def test_normal_pressure_keeps_everything(self, tagger, make_alert_record):
        policy = ShedPolicy("priority")
        for record in (_record(0.0, "chatter line"), make_alert_record(0.0)):
            decision, _ = _decide(policy, tagger, record, PressureLevel.NORMAL)
            assert decision == KEEP

    def test_elevated_sheds_only_chatter(self, tagger, make_alert_record):
        policy = ShedPolicy("priority")
        decision, klass = _decide(policy, tagger, _record(0.0, "chatter"),
                                  PressureLevel.ELEVATED)
        assert (decision, klass) == (SHED, CLASS_CHATTER)
        decision, _ = _decide(policy, tagger, make_alert_record(1.0),
                              PressureLevel.ELEVATED)
        assert decision == KEEP

    def test_critical_sheds_duplicates_spills_fresh_alerts(
        self, tagger, make_alert_record
    ):
        policy = ShedPolicy("priority", dedup_window=5.0)
        decision, klass = _decide(policy, tagger, make_alert_record(0.0),
                                  PressureLevel.CRITICAL)
        assert (decision, klass) == (SPILL, CLASS_ALERT)
        decision, klass = _decide(policy, tagger, make_alert_record(1.0),
                                  PressureLevel.CRITICAL)
        assert (decision, klass) == (SHED, CLASS_DUPLICATE)


class TestOtherPolicies:
    def test_chatter_only_never_sheds_tagged(self, tagger, make_alert_record):
        policy = ShedPolicy("chatter-only", dedup_window=5.0)
        _classify(policy, tagger, make_alert_record(0.0))  # prime a duplicate
        decision, klass = _decide(policy, tagger, make_alert_record(1.0),
                                  PressureLevel.CRITICAL)
        assert decision == SPILL  # duplicates spill, not shed
        assert klass == CLASS_DUPLICATE

    def test_none_policy_only_spills_at_critical(self, tagger):
        policy = ShedPolicy("none")
        decision, _ = _decide(policy, tagger, _record(0.0, "chatter"),
                              PressureLevel.ELEVATED)
        assert decision == KEEP
        decision, _ = _decide(policy, tagger, _record(0.0, "chatter"),
                              PressureLevel.CRITICAL)
        assert decision == SPILL


class TestRegistry:
    def test_known_names(self):
        assert set(SHED_DECISIONS) == {"priority", "chatter-only", "none"}
        for name in SHED_DECISIONS:
            assert ShedPolicy(name).name == name

    def test_dedup_window_passthrough(self):
        """The door's duplicate lookback is always the filter ``T``."""
        assert ShedPolicy("priority", dedup_window=9.0).dedup_window == 9.0
        door = BoundedIngest("door", BackpressureConfig(), threshold=9.0)
        assert door.policy.dedup_window == 9.0
        assert _door().policy.dedup_window == 5.0

    def test_instance_passthrough(self):
        policy = ShedPolicy("priority")
        door = BoundedIngest("door", BackpressureConfig(shed_policy=policy),
                             threshold=5.0)
        assert door.policy is policy

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown shed policy"):
            ShedPolicy("yolo")
        with pytest.raises(ValueError, match="unknown shed policy"):
            _door(shed_policy="yolo")

    @pytest.mark.parametrize("policy_name", sorted(SHED_DECISIONS))
    def test_the_table_never_sheds_a_fresh_alert(self, policy_name):
        """At NORMAL everything is kept; a fresh tagged alert may spill
        at worst."""
        normal, *pressured = SHED_DECISIONS[policy_name]
        assert normal == (KEEP, KEEP, KEEP)
        assert all(verbs[2] in (KEEP, SPILL) for verbs in pressured)


class TestAccounting:
    """The bounded run's per-class tallies, over a whole burst."""

    @pytest.fixture(scope="class")
    def burst(self):
        from repro import api

        records = list(read_log(
            GOLDEN_DIR / "spirit.log", "spirit",
            year=load_expected("spirit")["year"],
        ))
        manager = CheckpointManager(every=64)
        return len(records), manager, api.run_stream(
            iter(records), "spirit", checkpointer=manager,
            backpressure=BackpressureConfig.burst(
                factor=10.0, service_batch=8, max_buffer=32,
            ),
        )

    def test_conservation_identity(self, burst):
        presented, _, result = burst
        report = result.overload
        offered = sum(report.offered_by_class.values())
        assert offered == presented
        admitted = offered - report.total_shed - report.total_spilled
        assert admitted == result.message_count
        assert "shed:" in "\n".join(report.summary_lines())

    def test_counts_take_a_count(self, burst):
        """The checkpoint carries one plain count per class, never
        more than the whole run's."""
        _, manager, result = burst
        state = manager.latest.overload_state
        report = result.overload
        for key, final in (("offered", report.offered_by_class),
                           ("shed", report.shed_by_class),
                           ("spilled", report.spilled_by_class)):
            assert type(state[key]) is dict and state[key]
            for klass, n in state[key].items():
                assert type(n) is int and 0 < n <= final[klass]

    def test_empty_summary(self):
        door = BoundedIngest("ingest", BackpressureConfig(), threshold=5.0)
        report = OverloadReport.build(door.queue, {
            "offered": {}, "shed": {}, "spilled": {}, "throughput": {},
            "events": [],
        })
        assert (report.total_shed, report.total_spilled) == (0, 0)
        assert report.summary_lines() == ["queues (peak):     ingest 0/1024"]


def _door(max_buffer=8, shed_policy="priority", shed_state=None):
    return BoundedIngest(
        "door",
        BackpressureConfig(max_buffer=max_buffer, shed_policy=shed_policy),
        threshold=5.0, shed_state=shed_state,
    )


class TestBoundedIngest:
    def test_refused_triples_come_back_in_arrival_order(
        self, tagger, make_alert_record
    ):
        """CRITICAL from the first record: chatter is shed, each fresh
        alert spilled — handed back, in order, with verdict and class."""
        door = _door()
        records = [make_alert_record(100.0 * i) if i % 2 else
                   _record(100.0 * i, "chatter") for i in range(8)]
        outcome = tagger.tag_batch(records)
        offered, shed, refused = door.offer(
            records, outcome, floor=PressureLevel.CRITICAL
        )
        assert in_order(offered) == [(CLASS_CHATTER, 4), (CLASS_ALERT, 4)]
        assert in_order(shed) == [(CLASS_CHATTER, 4)]
        assert [r for r, _, _ in refused] == records[1::2]
        assert [v for _, v, _ in refused] == [a for _, a in outcome.hits]
        assert {k for _, _, k in refused} == {CLASS_ALERT}
        assert not door.queue

    def test_keep_on_a_full_queue_is_refused_not_dropped(self, tagger):
        """``none`` keeps until the queue is at capacity; past that the
        policy spills — and a KEEP the queue cannot take is refused the
        same way, so every record is queued or handed back."""
        door = _door(max_buffer=4, shed_policy="none")
        records = [_record(float(i), "chatter") for i in range(6)]
        offered, shed, refused = door.offer(records, tagger.tag_batch(records))
        assert (offered, shed) == ({CLASS_CHATTER: 6}, {})
        assert [r for r, _ in door.queue.take(6)] == records[:4]
        assert [(r, v, k) for r, v, k in refused] \
            == [(r, None, CLASS_CHATTER) for r in records[4:]]
        # The put itself refusing (a policy that never looks at pressure):
        door = _door(max_buffer=1)
        door.policy.decide = lambda record, level, verdict: (KEEP, CLASS_CHATTER)
        _, _, refused = door.offer(records[:3], tagger.tag_batch(records[:3]))
        assert [r for r, _, _ in refused] == records[1:3]
        assert len(door.queue) == 1

    def test_floor_sheds_chatter_on_an_empty_queue(self, tagger):
        door = _door()
        records = [_record(0.0, "chatter")]
        assert door.offer(records, tagger.tag_batch(records)) \
            == ({CLASS_CHATTER: 1}, {}, [])
        assert len(door.queue) == 1
        door.queue.take(1)
        assert door.offer(
            records, tagger.tag_batch(records), floor=PressureLevel.CRITICAL
        ) == ({CLASS_CHATTER: 1}, {CLASS_CHATTER: 1}, [])
        assert not door.queue

    @pytest.mark.parametrize("policy_name", sorted(SHED_DECISIONS))
    def test_tagger_error_is_a_tagged_alert_never_shed(self, policy_name):
        error = repr(RuntimeError("regex engine fell over"))
        records = [_record(float(i), "anything") for i in range(3)]
        outcome = BatchOutcome(size=3, errors=tuple((i, error) for i in range(3)))
        for floor in PressureLevel:
            door = _door(shed_policy=policy_name)
            offered, shed, refused = door.offer(records, outcome, floor=floor)
            assert (offered, shed) == ({CLASS_ALERT: 3}, {})
            queued = door.queue.take(3)
            assert queued + [(r, v) for r, v, _ in refused] \
                == [(r, error) for r in records]
            assert door.policy.state_dict() == {}

    def test_shed_state_round_trips(self, tagger, make_alert_record):
        """A door rebuilt from a checkpointed lookback calls the next
        record a duplicate exactly when the original does."""
        first = _door()
        warmup = [make_alert_record(0.0)]
        first.offer(warmup, tagger.tag_batch(warmup))
        state = first.policy.state_dict()
        assert state
        rebuilt, fresh = _door(shed_state=state), _door()
        repeat = [make_alert_record(2.0)]
        outcome = tagger.tag_batch(repeat)
        assert rebuilt.offer(repeat, outcome) == first.offer(repeat, outcome) \
            == ({CLASS_DUPLICATE: 1}, {}, [])
        assert fresh.offer(repeat, outcome) == ({CLASS_ALERT: 1}, {}, [])
        assert rebuilt.policy.state_dict() == first.policy.state_dict()

    @pytest.mark.parametrize("policy_name", sorted(SHED_DECISIONS))
    def test_a_forgotten_verdict_is_a_type_error(self, policy_name):
        """Not a silent ``tagged-alert``: the verdict is required."""
        policy = ShedPolicy(policy_name)
        with pytest.raises(TypeError):
            policy.decide(_record(0.0, "x"), PressureLevel.CRITICAL)
        with pytest.raises(TypeError):
            policy.classify(_record(0.0, "x"))


def per_record_offer(door, records, outcome, floor=PressureLevel.NORMAL):
    """The door's loop before it took a calm stretch in one step: one
    decision per record against the live depth, classes as lists.  The
    reference the segmented :meth:`BoundedIngest.offer` must match."""
    decide = door.policy.decide
    pressure, put = door.queue.pressure, door.queue.put
    offered, shed, refused = [], [], []
    found = dict(chain(outcome.hits, outcome.errors))
    for item in zip(records, map(found.get, range(len(records)))):
        record, verdict = item
        decision, klass = decide(record, max(pressure(), floor), verdict)
        offered.append(klass)
        if decision == SHED:
            shed.append(klass)
        elif decision == SPILL or not put(item):
            refused.append((record, verdict, klass))
    return offered, shed, refused


#: One arrival: what the tagger said (``None`` chatter, an alert of one
#: of three categories, or an error) and how far its clock moves.
arrivals = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1, 2, "error"]),
        st.sampled_from([0.0, 0.5, 2.0, 7.0, -1.0]),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    capacity=st.integers(1, 40),
    depth=st.integers(0, 45),
    elevated=st.booleans(),
    floor=st.sampled_from(list(PressureLevel)),
    policy_name=st.sampled_from(sorted(SHED_DECISIONS)),
    warm=st.booleans(),
    run=arrivals,
)
def test_segmented_offer_equals_the_per_record_loop(
    tagger, capacity, depth, elevated, floor, policy_name, warm, run
):
    """Whatever depth, hysteresis, floor, policy and verdict mix a run
    meets, taking its calm stretch in one step decides exactly what
    deciding each record does: the same counts in the same order, the
    same refusals, queue, clock, ledger and duplicate lookback."""
    categories = list(tagger.ruleset)[:3]
    records, hits, errors, t = [], [], [], 100.0
    for at, (verdict, step) in enumerate(run):
        t += step
        record = _record(t, f"line {at}")
        records.append(record)
        if verdict == "error":
            errors.append((at, repr(RuntimeError("regex engine fell over"))))
        elif verdict is not None:
            hits.append((at, Alert.from_record(record, categories[verdict])))
    outcome = BatchOutcome(len(records), tuple(hits), tuple(errors))
    state = {categories[0].name: 99.0} if warm else None
    doors = []
    for _ in range(2):
        door = _door(capacity, policy_name, shed_state=state)
        for n in range(min(depth, capacity)):
            door.queue.put(("queued", n))
        door.queue.clock.elevated = elevated
        doors.append(door)
    segmented, reference = doors

    offered, shed, refused = segmented.offer(records, outcome, floor)
    want_offered, want_shed, want_refused = per_record_offer(
        reference, records, outcome, floor
    )
    assert list(offered.items()) == in_order(want_offered)
    assert list(shed.items()) == in_order(want_shed)
    assert refused == want_refused
    assert segmented.queue.state_dict() == reference.queue.state_dict()
    assert segmented.queue.clock.elevated == reference.queue.clock.elevated
    assert segmented.queue.take(100) == reference.queue.take(100)
    assert segmented.policy.state_dict() == reference.policy.state_dict()
