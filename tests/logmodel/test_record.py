"""Unit tests for the canonical log record model."""

import copy
import pickle

import pytest

from repro.logmodel.record import (
    SYSTEM_NAMES,
    Channel,
    LogRecord,
    RasSeverity,
    SyslogSeverity,
)


class TestSyslogSeverity:
    def test_ordering_most_severe_first(self):
        assert SyslogSeverity.EMERG < SyslogSeverity.DEBUG
        assert SyslogSeverity.CRIT < SyslogSeverity.ERR

    def test_from_label_case_insensitive(self):
        assert SyslogSeverity.from_label("crit") is SyslogSeverity.CRIT
        assert SyslogSeverity.from_label(" WARNING ") is SyslogSeverity.WARNING

    def test_from_label_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown syslog severity"):
            SyslogSeverity.from_label("FATAL")

    def test_eight_levels(self):
        assert len(SyslogSeverity) == 8


class TestRasSeverity:
    def test_six_levels_match_table5(self):
        assert [s.name for s in RasSeverity] == [
            "FATAL", "FAILURE", "SEVERE", "ERROR", "WARNING", "INFO",
        ]

    def test_from_label(self):
        assert RasSeverity.from_label("fatal") is RasSeverity.FATAL

    def test_from_label_rejects_syslog_labels(self):
        with pytest.raises(ValueError):
            RasSeverity.from_label("CRIT")


class TestLogRecord:
    def _record(self, **overrides):
        defaults = dict(
            timestamp=100.0,
            source="sn373",
            facility="kernel",
            body="EXT3-fs error",
            system="spirit",
        )
        defaults.update(overrides)
        return LogRecord(**defaults)

    def test_full_text_includes_facility(self):
        assert self._record().full_text() == "kernel: EXT3-fs error"

    def test_full_text_without_facility(self):
        assert self._record(facility="").full_text() == "EXT3-fs error"

    def test_timestamp_must_be_numeric(self):
        with pytest.raises(TypeError, match="timestamp"):
            self._record(timestamp="noon")

    def test_syslog_severity_typed_view(self):
        record = self._record(severity="CRIT")
        assert record.syslog_severity() is SyslogSeverity.CRIT
        assert record.ras_severity() is None

    def test_ras_severity_typed_view(self):
        record = self._record(severity="FATAL", system="bgl")
        assert record.ras_severity() is RasSeverity.FATAL
        assert record.syslog_severity() is None

    def test_shared_labels_parse_in_both_spaces(self):
        # WARNING and INFO exist in both severity vocabularies.
        record = self._record(severity="WARNING")
        assert record.syslog_severity() is SyslogSeverity.WARNING
        assert record.ras_severity() is RasSeverity.WARNING

    def test_missing_severity_views_are_none(self):
        record = self._record()
        assert record.severity is None
        assert record.syslog_severity() is None
        assert record.ras_severity() is None

    def test_with_corruption_flags_and_replaces_body(self):
        damaged = self._record().with_corruption(body="EXT3-fs err")
        assert damaged.corrupted
        assert damaged.body == "EXT3-fs err"
        assert damaged.source == "sn373"

    def test_with_corruption_can_garble_source(self):
        damaged = self._record().with_corruption(body="x", source="\x00\x01")
        assert damaged.source == "\x00\x01"

    def test_records_are_frozen(self):
        with pytest.raises(AttributeError):
            self._record().timestamp = 5.0

    def test_equality_ignores_raw(self):
        a = self._record(raw="line-a")
        b = self._record(raw="line-b")
        assert a == b

    def test_default_channel(self):
        assert self._record().channel is Channel.SYSLOG_UDP

    def test_hash_ignores_raw(self):
        a = self._record(raw="line-a")
        b = self._record(raw="line-b")
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_every_other_field_takes_part_in_equality(self):
        record = self._record()
        for name, value in [
            ("timestamp", 101.0), ("source", "sn1"), ("facility", "pbs"),
            ("body", "other"), ("system", "liberty"), ("severity", "CRIT"),
            ("channel", Channel.DDN), ("corrupted", True),
        ]:
            assert record != record._replace(**{name: value}), name

    def test_unequal_to_a_plain_tuple_or_another_class(self):
        record = self._record()
        assert record != tuple(record)
        assert tuple(record) != record
        assert not record == tuple(record)
        assert record != list(record)

        class Other(LogRecord):
            __slots__ = ()

        assert record != Other(*record)

    def test_records_are_unordered(self):
        record = self._record()
        with pytest.raises(TypeError):
            record < record
        with pytest.raises(TypeError):
            record >= tuple(record)

    def test_assignment_raises_attribute_error(self):
        record = self._record()
        with pytest.raises(AttributeError):
            record.body = "other"
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr_names_every_field(self):
        assert repr(self._record(raw="x")) == (
            "LogRecord(timestamp=100.0, source='sn373', facility='kernel', "
            "body='EXT3-fs error', system='spirit', severity=None, "
            "channel=<Channel.SYSLOG_UDP: 'syslog-udp'>, corrupted=False, "
            "raw='x')"
        )

    def test_field_names_and_defaults(self):
        assert LogRecord._fields == (
            "timestamp", "source", "facility", "body", "system", "severity",
            "channel", "corrupted", "raw",
        )
        record = LogRecord(1.0, "n1", "f", "b")
        assert (record.system, record.severity, record.channel,
                record.corrupted, record.raw) == (
            "", None, Channel.SYSLOG_UDP, False, None)

    def test_pickle_and_copy_round_trip(self):
        record = self._record(severity="CRIT", raw="the line")
        for clone in (
            pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)),
            pickle.loads(pickle.dumps(record, protocol=2)),
            copy.copy(record),
            copy.deepcopy(record),
        ):
            assert type(clone) is LogRecord
            assert clone == record
            assert clone.raw == record.raw

    def test_every_construction_path_checks_the_timestamp(self):
        record = self._record()
        with pytest.raises(TypeError, match="timestamp"):
            record._replace(timestamp="noon")
        with pytest.raises(TypeError, match="timestamp"):
            LogRecord._make(("noon",) + tuple(record)[1:])
        with pytest.raises(TypeError, match="timestamp"):
            LogRecord(None, "n1", "f", "b")

    def test_with_corruption_keeps_the_line(self):
        damaged = self._record(raw="the line").with_corruption(body="EXT3")
        assert damaged.raw == "the line"
        assert type(damaged) is LogRecord


def test_system_names_order_matches_paper():
    assert SYSTEM_NAMES == (
        "bgl", "thunderbird", "redstorm", "spirit", "liberty",
    )
