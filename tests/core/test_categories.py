"""Unit tests for the alert/category vocabulary."""

import copy
import pickle

import pytest

from repro.core.categories import Alert, AlertType, CategoryDef, Ruleset
from repro.logmodel.record import LogRecord


class TestAlertType:
    def test_codes_match_paper(self):
        assert AlertType.HARDWARE.value == "H"
        assert AlertType.SOFTWARE.value == "S"
        assert AlertType.INDETERMINATE.value == "I"

    def test_from_code(self):
        assert AlertType.from_code("H") is AlertType.HARDWARE

    def test_from_code_rejects_unknown(self):
        with pytest.raises(ValueError):
            AlertType.from_code("X")


def _category(**overrides):
    defaults = dict(
        name="TESTCAT",
        system="test",
        alert_type=AlertType.SOFTWARE,
        pattern=r"boom",
        facility="kernel",
        example="boom happened",
    )
    defaults.update(overrides)
    return CategoryDef(**defaults)


class TestCategoryDef:
    def test_compiled_pattern_searches(self):
        assert _category().compiled().search("the boom happened")

    def test_make_body_defaults_to_example(self):
        assert _category().make_body() == "boom happened"

    def test_make_body_uses_factory(self):
        cat = _category(body_factory=lambda rng: "boom 42")
        assert cat.make_body() == "boom 42"

    def test_body_factory_excluded_from_equality(self):
        a = _category(body_factory=lambda rng: "x")
        b = _category(body_factory=lambda rng: "y")
        assert a == b


class TestAlert:
    def test_from_record_copies_hot_fields(self):
        record = LogRecord(
            timestamp=7.0, source="n3", facility="kernel",
            body="boom happened", system="test",
        )
        alert = Alert.from_record(record, _category())
        assert alert.timestamp == 7.0
        assert alert.source == "n3"
        assert alert.category == "TESTCAT"
        assert alert.alert_type is AlertType.SOFTWARE
        assert alert.record is record

    @staticmethod
    def _alert(body="boom happened", raw=None):
        record = LogRecord(7.0, "n3", "kernel", body, "test", raw=raw)
        return Alert.from_record(record, _category())

    def test_equality_and_hash_ignore_the_record(self):
        a = self._alert(body="boom one", raw="line a")
        b = self._alert(body="boom two", raw="line b")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_hot_fields_take_part_in_equality(self):
        alert = self._alert()
        for name, value in [
            ("timestamp", 8.0), ("source", "n4"), ("category", "OTHER"),
            ("alert_type", AlertType.HARDWARE),
        ]:
            assert alert != alert._replace(**{name: value}), name

    def test_unequal_to_a_plain_tuple_or_another_class(self):
        alert = self._alert()
        assert alert != tuple(alert)
        assert tuple(alert) != alert
        assert alert != alert.record

    def test_alerts_are_unordered(self):
        with pytest.raises(TypeError):
            self._alert() < self._alert()

    def test_assignment_raises_attribute_error(self):
        alert = self._alert()
        with pytest.raises(AttributeError):
            alert.category = "OTHER"
        with pytest.raises(AttributeError):
            alert.extra = 1

    def test_fields_and_repr(self):
        alert = self._alert()
        assert Alert._fields == (
            "timestamp", "source", "category", "alert_type", "record",
        )
        assert repr(alert).startswith(
            "Alert(timestamp=7.0, source='n3', category='TESTCAT', "
            "alert_type=<AlertType.SOFTWARE: 'S'>, record=LogRecord("
        )

    def test_pickle_and_copy_round_trip(self):
        alert = self._alert(raw="the line")
        for clone in (
            pickle.loads(pickle.dumps(alert, protocol=pickle.HIGHEST_PROTOCOL)),
            copy.copy(alert),
            copy.deepcopy(alert),
        ):
            assert type(clone) is Alert
            assert clone == alert
            assert clone.record == alert.record
            assert clone.record.raw == "the line"


class TestRuleset:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Ruleset(system="test", categories=(_category(), _category()))

    def test_rejects_foreign_categories(self):
        with pytest.raises(ValueError, match="belong"):
            Ruleset(system="other", categories=(_category(),))

    def test_get_and_names(self):
        ruleset = Ruleset(system="test", categories=(_category(),))
        assert ruleset.get("TESTCAT").pattern == "boom"
        assert ruleset.names() == ("TESTCAT",)

    def test_get_missing_raises(self):
        ruleset = Ruleset(system="test", categories=(_category(),))
        with pytest.raises(KeyError):
            ruleset.get("MISSING")

    def test_len_and_iter(self):
        ruleset = Ruleset(system="test", categories=(_category(),))
        assert len(ruleset) == 1
        assert [c.name for c in ruleset] == ["TESTCAT"]
