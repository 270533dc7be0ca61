"""Unit tests for the priority-aware load-shedding policies."""

import pytest

from repro.core.rules import get_ruleset
from repro.core.tagging import Tagger
from repro.logio.reader import read_log
from repro.logmodel.record import LogRecord
from repro.resilience.backpressure import KEEP, SHED, SPILL, PressureLevel
from repro.resilience.shedding import (
    CLASS_ALERT,
    CLASS_CHATTER,
    CLASS_DUPLICATE,
    SHED_POLICIES,
    ChatterOnlyShedPolicy,
    NoShedPolicy,
    PriorityShedPolicy,
    ShedAccounting,
    get_shed_policy,
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


def _record(t, body):
    return LogRecord(timestamp=t, source="n1", facility="kernel", body=body)


class TestClassification:
    def test_chatter_vs_alert(self, tagger, make_alert_record):
        policy = PriorityShedPolicy(dedup_window=5.0).bind(tagger)
        assert policy.classify(_record(0.0, "healthd: uneventful")) \
            == CLASS_CHATTER
        assert policy.classify(make_alert_record(100.0)) == CLASS_ALERT

    def test_repeat_within_window_is_duplicate(self, tagger, make_alert_record):
        policy = PriorityShedPolicy(dedup_window=5.0).bind(tagger)
        assert policy.classify(make_alert_record(0.0)) == CLASS_ALERT
        assert policy.classify(make_alert_record(2.0)) == CLASS_DUPLICATE
        # Beyond the window the category is fresh again.
        assert policy.classify(make_alert_record(20.0)) == CLASS_ALERT

    def test_backwards_timestamp_is_not_duplicate(self, tagger, make_alert_record):
        policy = PriorityShedPolicy(dedup_window=5.0).bind(tagger)
        policy.classify(make_alert_record(10.0))
        assert policy.classify(make_alert_record(3.0)) == CLASS_ALERT

    def test_unbound_policy_is_conservative(self):
        policy = PriorityShedPolicy()
        assert policy.classify(_record(0.0, "anything")) == CLASS_ALERT
        # ...so under pressure nothing is shed, only spilled.
        decision, klass = policy.decide(_record(0.0, "anything"),
                                        PressureLevel.CRITICAL)
        assert decision == SPILL
        assert klass == CLASS_ALERT


@pytest.mark.parametrize("system", ALL_SYSTEMS)
@pytest.mark.parametrize("level", list(PressureLevel))
@pytest.mark.parametrize("policy_name", sorted(SHED_POLICIES))
def test_told_the_verdict_equals_matching_it(policy_name, level, system):
    """A caller that has already tagged the record hands ``decide`` the
    verdict; that must choose exactly what the self-matching form
    chooses — class, decision and the duplicate lookback it leaves."""
    records = list(read_log(
        GOLDEN_DIR / f"{system}.log", system, year=load_expected(system)["year"]
    ))
    system_tagger = Tagger(get_ruleset(system))
    matching = get_shed_policy(policy_name, dedup_window=5.0).bind(system_tagger)
    told = get_shed_policy(policy_name, dedup_window=5.0)
    assert [told.decide(r, level, system_tagger.tag(r)) for r in records] \
        == [matching.decide(r, level) for r in records]
    assert told.state_dict() == matching.state_dict() != {}


class TestToldVerdict:
    def test_tagger_error_is_unclassifiable(self, make_alert_record):
        """What the rules engine failed on may spill, never be shed —
        the unbound rule — and leaves the duplicate lookback alone."""
        policy = PriorityShedPolicy(dedup_window=5.0)
        error = repr(RuntimeError("regex engine fell over"))
        for level, decision in (
            (PressureLevel.NORMAL, KEEP), (PressureLevel.ELEVATED, KEEP),
            (PressureLevel.CRITICAL, SPILL),
        ):
            assert policy.decide(make_alert_record(0.0), level, error) \
                == (decision, CLASS_ALERT)
        assert policy.state_dict() == {}

    def test_no_verdict_is_chatter_even_unbound(self):
        policy = PriorityShedPolicy()
        assert policy.decide(_record(0.0, "x"), PressureLevel.ELEVATED, None) \
            == (SHED, CLASS_CHATTER)


class TestPriorityPolicy:
    def test_normal_pressure_keeps_everything(self, tagger, make_alert_record):
        policy = PriorityShedPolicy().bind(tagger)
        for record in (_record(0.0, "chatter line"), make_alert_record(0.0)):
            decision, _ = policy.decide(record, PressureLevel.NORMAL)
            assert decision == KEEP

    def test_elevated_sheds_only_chatter(self, tagger, make_alert_record):
        policy = PriorityShedPolicy().bind(tagger)
        decision, klass = policy.decide(_record(0.0, "chatter"),
                                        PressureLevel.ELEVATED)
        assert (decision, klass) == (SHED, CLASS_CHATTER)
        decision, _ = policy.decide(make_alert_record(1.0),
                                    PressureLevel.ELEVATED)
        assert decision == KEEP

    def test_critical_sheds_duplicates_spills_fresh_alerts(
        self, tagger, make_alert_record
    ):
        policy = PriorityShedPolicy(dedup_window=5.0).bind(tagger)
        decision, klass = policy.decide(make_alert_record(0.0),
                                        PressureLevel.CRITICAL)
        assert (decision, klass) == (SPILL, CLASS_ALERT)
        decision, klass = policy.decide(make_alert_record(1.0),
                                        PressureLevel.CRITICAL)
        assert (decision, klass) == (SHED, CLASS_DUPLICATE)


class TestOtherPolicies:
    def test_chatter_only_never_sheds_tagged(self, tagger, make_alert_record):
        policy = ChatterOnlyShedPolicy(dedup_window=5.0).bind(tagger)
        policy.classify(make_alert_record(0.0))  # prime a duplicate
        decision, klass = policy.decide(make_alert_record(1.0),
                                        PressureLevel.CRITICAL)
        assert decision == SPILL  # duplicates spill, not shed
        assert klass == CLASS_DUPLICATE

    def test_none_policy_only_spills_at_critical(self, tagger):
        policy = NoShedPolicy().bind(tagger)
        decision, _ = policy.decide(_record(0.0, "chatter"),
                                    PressureLevel.ELEVATED)
        assert decision == KEEP
        decision, _ = policy.decide(_record(0.0, "chatter"),
                                    PressureLevel.CRITICAL)
        assert decision == SPILL


class TestRegistry:
    def test_known_names(self):
        assert set(SHED_POLICIES) == {"priority", "chatter-only", "none"}
        for name in SHED_POLICIES:
            assert get_shed_policy(name).name == name

    def test_dedup_window_passthrough(self):
        assert get_shed_policy("priority", dedup_window=9.0).dedup_window == 9.0

    def test_instance_passthrough(self):
        policy = PriorityShedPolicy()
        assert get_shed_policy(policy) is policy

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown shed policy"):
            get_shed_policy("yolo")


class TestAccounting:
    def test_conservation_identity(self):
        accounting = ShedAccounting()
        for _ in range(5):
            accounting.count_offered(CLASS_CHATTER)
        accounting.count_shed(CLASS_CHATTER)
        accounting.count_offered(CLASS_ALERT)
        accounting.count_spilled(CLASS_ALERT)
        assert accounting.total_offered == 6
        assert accounting.admitted == 4
        assert "shed" in accounting.summary()

    def test_counts_take_a_count(self):
        """A tick hands over one count per class, not one call per record."""
        accounting = ShedAccounting()
        accounting.count_offered(CLASS_CHATTER, 64)
        accounting.count_shed(CLASS_CHATTER, 60)
        accounting.count_spilled(CLASS_ALERT, 3)
        accounting.count_offered(CLASS_ALERT, 3)
        assert (accounting.total_offered, accounting.admitted) == (67, 4)

    def test_empty_summary(self):
        assert ShedAccounting().summary() == "nothing shed"
