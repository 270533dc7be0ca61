"""Unit tests for the tagging engine."""

import re

from repro.core.categories import AlertType, CategoryDef, Ruleset
from repro.core.tagging import (
    RulesetHandle,
    Tagger,
    count_by_category,
    count_by_type,
    observed_categories,
)
from repro.logmodel.record import LogRecord


def _ruleset():
    return Ruleset(
        system="test",
        categories=(
            CategoryDef(
                name="SPECIFIC", system="test",
                alert_type=AlertType.HARDWARE,
                pattern=r"disk error on sda", facility="kernel",
            ),
            CategoryDef(
                name="GENERAL", system="test",
                alert_type=AlertType.SOFTWARE,
                pattern=r"disk error", facility="kernel",
            ),
        ),
    )


def _record(body, **overrides):
    defaults = dict(
        timestamp=1.0, source="n1", facility="kernel", body=body,
        system="test",
    )
    defaults.update(overrides)
    return LogRecord(**defaults)


class TestTagger:
    def test_first_match_wins(self):
        """logsurfer semantics: the more specific rule listed first wins."""
        tagger = Tagger(_ruleset())
        assert tagger.match(_record("disk error on sda")).name == "SPECIFIC"
        assert tagger.match(_record("disk error on sdb")).name == "GENERAL"

    def test_non_matching_record_is_none(self):
        tagger = Tagger(_ruleset())
        assert tagger.tag(_record("all quiet")) is None

    def test_pattern_sees_facility_prefix(self):
        ruleset = Ruleset(
            system="test",
            categories=(
                CategoryDef(
                    name="PBS", system="test",
                    alert_type=AlertType.SOFTWARE,
                    pattern=r"^pbs_mom: task_check",
                ),
            ),
        )
        tagger = Tagger(ruleset)
        hit = _record("task_check, cannot tm_reply", facility="pbs_mom")
        miss = _record("task_check, cannot tm_reply", facility="kernel")
        assert tagger.match(hit) is not None
        assert tagger.match(miss) is None

    def test_corrupted_record_can_still_be_tagged(self):
        """A truncated line that kept its signature is still an alert
        (Section 3.2.1's corrupted VAPI variants)."""
        tagger = Tagger(_ruleset())
        record = _record("disk error on").with_corruption(body="disk error on")
        assert tagger.match(record).name == "GENERAL"

    def test_tag_stream_yields_only_alerts(self):
        tagger = Tagger(_ruleset())
        records = [_record("quiet"), _record("disk error"), _record("quiet")]
        alerts = list(tagger.tag_stream(records))
        assert len(alerts) == 1
        assert alerts[0].category == "GENERAL"


class TestPrefilterEquivalence:
    def test_prefilter_preserves_first_match_semantics(self):
        """The combined-alternation reject filter must never change which
        rule wins — differential check against a prefilter-free scan over
        every ruleset's generated bodies and background chaff."""
        import numpy as np

        from repro.core.rules import RULESETS
        from repro.logmodel.record import Channel
        from repro.simulation.background import pool_for
        from repro.simulation.calibration import SCENARIOS

        rng = np.random.default_rng(2)
        for system, ruleset in RULESETS.items():
            tagger = Tagger(ruleset)
            reference = Tagger(ruleset)
            reference._prefilter = None  # disable the fast path
            probes = []
            for cat in ruleset:
                body = cat.make_body(rng)
                if cat.channel is Channel.RAS_TCP:
                    body = f"src:::n0 svc:::n0 {body}"
                probes.append(
                    LogRecord(
                        timestamp=1.0, source="n1", facility=cat.facility,
                        body=body, system=system, severity=cat.severity,
                        channel=cat.channel,
                    )
                )
            for spec in SCENARIOS[system].background:
                for facility, body in pool_for(system, spec.severity,
                                               spec.channel):
                    probes.append(
                        LogRecord(
                            timestamp=1.0, source="n1", facility=facility,
                            body=body, system=system,
                        )
                    )
            for record in probes:
                fast = tagger.match(record)
                slow = reference.match(record)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert fast.name == slow.name


class TestPrefilterFlags:
    """Regression: each rule's flags and groups stay its own.

    Joining raw pattern strings with ``|`` once dropped
    ``CategoryDef.flags`` entirely, a ``(?i)``-prefixed rule in any
    non-first position is a compile error on Python 3.11+ (global flags
    mid-expression), and a group name two rules share cannot be defined
    twice in one pattern.  The tagger now never combines rule patterns.
    """

    def _flagged_ruleset(self):
        return Ruleset(
            system="test",
            categories=(
                CategoryDef(
                    name="CASED", system="test",
                    alert_type=AlertType.HARDWARE,
                    pattern=r"ECC error", facility="kernel",
                ),
                CategoryDef(
                    name="LOOSE", system="test",
                    alert_type=AlertType.SOFTWARE,
                    pattern=r"link failure", facility="kernel",
                    flags=re.IGNORECASE,
                ),
            ),
        )

    def test_flagged_rule_survives_prefilter(self):
        tagger = Tagger(self._flagged_ruleset())
        hit = _record("LINK FAILURE on port 3")
        # Sanity: the compiled per-rule pattern matches...
        assert tagger.ruleset.get("LOOSE").compiled().search(hit.full_text())
        # ...and the prefilter does not silently reject it first.
        assert tagger.match(hit).name == "LOOSE"

    def test_flags_stay_scoped_to_their_rule(self):
        tagger = Tagger(self._flagged_ruleset())
        # The case-sensitive rule must not inherit IGNORECASE from its
        # neighbor via the combined alternation.
        assert tagger.match(_record("ecc ERROR")) is None
        assert tagger.match(_record("ECC error")).name == "CASED"

    def test_inline_global_flag_prefix_compiles_and_scopes(self):
        """A logsurfer-style ``(?i)``-prefixed pattern in non-first
        position must neither crash prefilter compilation (Python 3.11+)
        nor leak case-insensitivity to other rules."""
        ruleset = Ruleset(
            system="test",
            categories=(
                CategoryDef(
                    name="STRICT", system="test",
                    alert_type=AlertType.HARDWARE,
                    pattern=r"panic", facility="kernel",
                ),
                CategoryDef(
                    name="RELAXED", system="test",
                    alert_type=AlertType.SOFTWARE,
                    pattern=r"(?i)fatal error", facility="kernel",
                ),
            ),
        )
        tagger = Tagger(ruleset)
        assert tagger.match(_record("FATAL ERROR in ciod")).name == "RELAXED"
        assert tagger.match(_record("PANIC")) is None
        assert tagger.match(_record("panic")).name == "STRICT"

    def test_scoped_pattern_shapes(self):
        """``flags=`` and inline flag groups reach their own rule only,
        through the tagger's fast path and its plain-scan reference."""
        ruleset = Ruleset(
            system="test",
            categories=(
                CategoryDef(name="A", system="test",
                            alert_type=AlertType.HARDWARE,
                            pattern=r"plain.end"),
                CategoryDef(name="B", system="test",
                            alert_type=AlertType.HARDWARE,
                            pattern=r"fold.end",
                            flags=re.IGNORECASE | re.DOTALL),
                CategoryDef(name="C", system="test",
                            alert_type=AlertType.HARDWARE,
                            pattern=r"(?im)^line end$"),
            ),
        )
        fast = Tagger(ruleset)
        reference = Tagger(ruleset)
        reference._prefilter = None
        cases = {
            "plain end": "A", "PLAIN END": None, "plain\nend": None,
            "FOLD\nEND": "B", "x\nLINE END\ny": "C", "x LINE END y": None,
        }
        for text, expected in cases.items():
            for tagger in (fast, reference):
                found = tagger.match_text(text)
                assert (found and found.name) == expected, text

    def test_rules_sharing_a_group_name(self):
        """Regression: two rules that compile alone but share a group
        name made ``Tagger(ruleset)`` raise ``redefinition of group
        name``."""
        ruleset = Ruleset(
            system="test",
            categories=(
                CategoryDef(name="DOWN", system="test",
                            alert_type=AlertType.HARDWARE,
                            pattern=r"(?P<host>sn\d+) down"),
                CategoryDef(name="PANIC", system="test",
                            alert_type=AlertType.SOFTWARE,
                            pattern=r"(?P<host>ln\d+) panic"),
            ),
        )
        tagger = Tagger(ruleset)
        assert tagger.match(_record("sn12 down", facility="")).name == "DOWN"
        assert tagger.match(_record("ln3 panic", facility="")).name == "PANIC"
        assert tagger.match(_record("sn12 panic", facility="")) is None

    def test_verbose_rule_is_tagged(self):
        """Regression: a ``VERBOSE`` rule's gate literal kept its layout
        whitespace, so the fast path missed texts the rule matches."""
        ruleset = Ruleset(
            system="test",
            categories=(
                CategoryDef(name="TLB", system="test",
                            alert_type=AlertType.HARDWARE,
                            pattern=r"data  TLB  error", flags=re.VERBOSE),
            ),
        )
        tagger = Tagger(ruleset)
        assert tagger.match_text("dataTLBerror").name == "TLB"
        assert tagger.match_texts(["quiet", "dataTLBerror"]) == [
            (1, ruleset.get("TLB")),
        ]


class TestBatchAPI:
    def test_tag_batch_matches_tag_stream(self):
        tagger = Tagger(_ruleset())
        records = [
            _record("quiet"),
            _record("disk error on sda"),
            _record("disk error"),
            _record("nothing"),
        ]
        outcome = tagger.tag_batch(records)
        assert outcome.size == 4
        assert [i for i, _ in outcome.hits] == [1, 2]
        assert [a.category for _, a in outcome.hits] == ["SPECIFIC", "GENERAL"]
        assert outcome.errors == ()
        assert [a for _, a in outcome.hits] == list(tagger.tag_stream(records))

    def test_tag_batch_captures_per_record_errors(self):
        tagger = Tagger(_ruleset())
        records = [
            _record("disk error"),
            # Non-string body with no facility prefix reaches the regex
            # engine raw and crashes the match.
            _record(12345, facility=""),
            _record("quiet"),
        ]
        outcome = tagger.tag_batch(records)
        assert outcome.size == 3
        assert [i for i, _ in outcome.hits] == [0]
        assert [i for i, _ in outcome.errors] == [1]
        assert "TypeError" in outcome.error_map()[1]

    def test_ruleset_handle_resolves_and_pickles(self):
        import pickle

        handle = RulesetHandle("liberty")
        clone = pickle.loads(pickle.dumps(handle))
        assert clone == handle
        tagger = clone.tagger()
        assert tagger.ruleset.system == "liberty"


class TestCounters:
    def _alerts(self):
        tagger = Tagger(_ruleset())
        bodies = ["disk error on sda", "disk error", "disk error", "quiet"]
        return list(tagger.tag_stream(_record(b) for b in bodies))

    def test_count_by_category(self):
        assert count_by_category(self._alerts()) == {
            "SPECIFIC": 1, "GENERAL": 2,
        }

    def test_count_by_type(self):
        assert count_by_type(self._alerts()) == {"H": 1, "S": 2}

    def test_observed_categories(self):
        assert observed_categories(self._alerts()) == 2
        assert observed_categories([]) == 0
