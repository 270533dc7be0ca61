"""Literal-gated tagger: differential equivalence with the naive scan.

The compiled fast path (:mod:`repro.core.rules.compiled`) must be
*invisible*: for every text, the literal gate plus the literal-skipping
ordered scan must pick exactly the rule the naive per-rule ordered loop
picks (first-rule-wins, logsurfer semantics).  These tests pin that
equivalence over all five system rulesets with hypothesis-generated
adversarial texts, over hypothesis-generated ad-hoc rulesets that mix
flags, group names, backreferences and conditionals, and over
handwritten rulesets engineered so leftmost-position and first-rule-wins
disagree — plus the per-rule flag edge cases that combining rule
patterns into one regex used to break.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categories import AlertType, CategoryDef, Ruleset
from repro.core.rules import RULESETS
from repro.core.rules.compiled import (
    CompiledRuleset,
    compiled_ruleset,
    required_literal,
)
from repro.core.tagging import RulesetHandle, Tagger

ALL_SYSTEMS = sorted(RULESETS)


def naive_index(compiled: CompiledRuleset, text: str):
    """The reference semantics: test every rule in order, first wins."""
    for k, (pattern, _cat) in enumerate(compiled._ordered):
        if pattern.search(text):
            return k
    return None


def _categories(*patterns, **common):
    return tuple(
        CategoryDef(
            name=f"R{k}", system="test", alert_type=AlertType.SOFTWARE,
            pattern=pattern, **common,
        )
        for k, pattern in enumerate(patterns)
    )


def _ruleset(*patterns, **common):
    return Ruleset(system="test", categories=_categories(*patterns, **common))


def _rule_text(cat):
    """The text a rule's pattern sees for its own example."""
    return f"{cat.facility}: {cat.example}" if cat.facility else cat.example


# ---------------------------------------------------------------------------
# The five system rulesets compile behind a literal gate and agree with
# the naive scan on adversarial generated texts.
# ---------------------------------------------------------------------------


class TestSystemRulesets:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_dispatch_mode_compiles(self, system):
        """Every shipped ruleset compiles behind a literal gate: each rule
        has a required literal, and each rule's own example passes the
        gate and is tagged by that rule or one ahead of it."""
        compiled = compiled_ruleset(RULESETS[system])
        assert compiled.literal_gate is not None
        assert len(compiled._scan) == len(compiled.categories)
        for k, (pattern, cat) in enumerate(compiled._ordered):
            assert required_literal(cat.pattern, cat.flags) is not None
            text = _rule_text(cat)
            assert pattern.search(text), (system, cat.name)
            assert compiled.literal_gate.search(text), (system, cat.name)
            assert compiled.match_index(text) <= k

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_cache_returns_same_object(self, system):
        handle = RulesetHandle(system)
        assert handle.compiled() is handle.compiled()
        assert handle.compiled() is compiled_ruleset(RULESETS[system])

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_examples_agree_with_naive_scan(self, system):
        compiled = compiled_ruleset(RULESETS[system])
        for cat in compiled.categories:
            if not cat.example:
                continue
            for text in (
                cat.example,
                f"{cat.facility}: {cat.example}" if cat.facility
                else cat.example,
                cat.example.upper(),
                cat.example[: max(4, len(cat.example) // 2)],
                f"prefix noise {cat.example} suffix noise",
            ):
                assert compiled.match_index(text) == \
                    naive_index(compiled, text), (system, cat.name, text)


def _example_fragments():
    fragments = set()
    for ruleset in RULESETS.values():
        for cat in ruleset:
            if cat.example:
                fragments.add(cat.example)
                fragments.update(cat.example.split())
    return sorted(fragments)


FRAGMENTS = _example_fragments()


@st.composite
def adversarial_texts(draw):
    """Concatenations of rule-example fragments, junk, and mutations —
    texts engineered to tickle more than one branch of an alternation."""
    parts = draw(st.lists(
        st.one_of(
            st.sampled_from(FRAGMENTS),
            st.text(max_size=12),
        ),
        min_size=0, max_size=5,
    ))
    text = draw(st.sampled_from([" ", ": ", ""])).join(parts)
    mutation = draw(st.sampled_from(["none", "upper", "lower", "truncate"]))
    if mutation == "upper":
        text = text.upper()
    elif mutation == "lower":
        text = text.lower()
    elif mutation == "truncate" and text:
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestHypothesisDifferential:
    @settings(max_examples=300, deadline=None)
    @given(text=adversarial_texts(), system=st.sampled_from(ALL_SYSTEMS))
    def test_match_index_equals_naive_scan(self, text, system):
        compiled = compiled_ruleset(RULESETS[system])
        assert compiled.match_index(text) == naive_index(compiled, text)

    @settings(max_examples=100, deadline=None)
    @given(
        texts=st.lists(adversarial_texts(), max_size=12),
        system=st.sampled_from(ALL_SYSTEMS),
    )
    def test_match_texts_equals_per_text(self, texts, system):
        compiled = compiled_ruleset(RULESETS[system])
        expected = []
        for i, text in enumerate(texts):
            k = naive_index(compiled, text)
            if k is not None:
                expected.append((i, compiled.categories[k]))
        assert compiled.match_texts(texts) == expected

    @settings(max_examples=150, deadline=None)
    @given(text=adversarial_texts(), system=st.sampled_from(ALL_SYSTEMS))
    def test_tagger_fast_path_equals_disabled_fast_path(self, text, system):
        """The Tagger-level differential: ``_prefilter = None`` drops to
        the naive ordered scan, the PR 4 reference semantics."""
        fast = Tagger(RULESETS[system])
        slow = Tagger(RULESETS[system])
        slow._prefilter = None
        a = fast.match_text(text)
        b = slow.match_text(text)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.name == b.name


#: Ad-hoc rules ``(pattern, flags)``: with and without a required literal,
#: case-insensitive and verbose ones (by ``flags`` and inline), and
#: backreferences, named groups (two sharing a name) and conditionals.
RULE_POOL = (
    (r"disk error", 0),
    (r"link failure on port \d+", 0),
    (r"^kernel: panic", 0),
    (r"node (\w+) down", 0),
    (r"fatal error$", 0),
    (r"ab|cd", 0),
    (r"[a-z]+x", 0),
    (r"x.y", 0),
    (r"link failure", re.IGNORECASE),
    (r"(?i)fatal error", 0),
    (r"panic", re.IGNORECASE | re.DOTALL),
    (r"data  TLB  error", re.VERBOSE),
    (r"(?x) disk \  full  # comment", 0),
    (r"data \s TLB", re.VERBOSE | re.IGNORECASE),
    (r"(\w+) \1 again", 0),
    (r"(c) \1", 0),
    (r"(?P<w>ab+)-(?P=w)", 0),
    (r"(?P<host>sn\d+) down", 0),
    (r"(?P<host>ln\d+) panic", 0),
    (r"(<)?node(?(1)>|) fault", 0),
    (r"(a)?b(?(1)c|d)", 0),
)

RULE_FRAGMENTS = (
    "disk error", "link failure on port 3", "LINK FAILURE", "kernel: panic",
    "node n1 down", "fatal error", "FATAL ERROR", "Panic", "ab", "cd",
    "fox", "x.y", "x\ny", "data  TLB  error", "dataTLBerror", "DATA TLB",
    "data TLB", "disk full", "disk  full", "foo foo again", "c c", "c a",
    "ab-ab", "abb-abb", "abb-ab", "sn12 down", "ln3 panic", "sn12 panic",
    "<node> fault", "node fault", "<node fault", "abc", "bd", "bc", "\n",
)


def _adhoc_ruleset(rules):
    return Ruleset(system="test", categories=tuple(
        CategoryDef(name=f"R{k}", system="test",
                    alert_type=AlertType.SOFTWARE, pattern=pattern,
                    flags=flags)
        for k, (pattern, flags) in enumerate(rules)
    ))


#: Ad-hoc rulesets in random rule order.
adhoc_rulesets = st.lists(
    st.sampled_from(RULE_POOL), min_size=1, max_size=7, unique=True,
).map(_adhoc_ruleset)


@st.composite
def adhoc_texts(draw):
    parts = draw(st.lists(
        st.one_of(st.sampled_from(RULE_FRAGMENTS), st.text(max_size=6)),
        max_size=4,
    ))
    text = draw(st.sampled_from([" ", "", "\n"])).join(parts)
    mutation = draw(st.sampled_from(["none", "upper", "lower", "swap"]))
    if mutation == "upper":
        text = text.upper()
    elif mutation == "lower":
        text = text.lower()
    elif mutation == "swap":
        text = text.swapcase()
    return text


class TestAdhocDifferential:
    @settings(max_examples=300, deadline=None)
    @given(ruleset=adhoc_rulesets, texts=st.lists(adhoc_texts(), max_size=6))
    def test_match_index_equals_naive_scan(self, ruleset, texts):
        compiled = CompiledRuleset(ruleset)
        expected = []
        for i, text in enumerate(texts):
            k = naive_index(compiled, text)
            assert compiled.match_index(text) == k, text
            if k is not None:
                expected.append((i, compiled.categories[k]))
        assert compiled.match_texts(texts) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        ruleset=st.one_of(
            st.sampled_from([RULESETS[system] for system in ALL_SYSTEMS]),
            adhoc_rulesets,
        ),
        data=st.data(),
    )
    def test_gate_accepts_every_rule_literal(self, ruleset, data):
        """The gate passes any text that holds some rule's required
        literal (in any case, for a case-insensitive rule)."""
        compiled = CompiledRuleset(ruleset)
        gate = compiled.literal_gate
        if gate is None:
            assert any(required_literal(cat.pattern, cat.flags) is None
                       for cat in ruleset)
            return
        for pattern, cat in compiled._ordered:
            literal = required_literal(cat.pattern, cat.flags)
            if pattern.flags & re.IGNORECASE:
                literal = data.draw(st.sampled_from(
                    [literal, literal.upper(), literal.lower(),
                     literal.swapcase()]
                ))
            text = data.draw(st.text(max_size=8)) + literal + \
                data.draw(st.text(max_size=8))
            assert gate.search(text), (cat.pattern, text)

    @pytest.mark.parametrize("bad", [None, 5, b"disk error", ["disk error"]])
    @pytest.mark.parametrize("rules", [
        ((r"disk error", 0), (r"link failure", re.IGNORECASE)),  # gated
        ((r"disk error", 0), (r"ab|cd", 0)),                     # no gate
    ])
    def test_non_str_raises_at_its_position(self, rules, bad):
        """``match_texts`` stays strict: a non-``str`` element raises
        ``TypeError`` when its turn comes, not before and not never."""
        compiled = CompiledRuleset(_adhoc_ruleset(rules))
        pulled = []

        def texts():
            for text in ["quiet", "disk error here", bad, "never reached"]:
                pulled.append(text)
                yield text

        with pytest.raises(TypeError):
            compiled.match_texts(texts())
        assert len(pulled) == 3
        with pytest.raises(TypeError):
            compiled.match_index(bad)


# ---------------------------------------------------------------------------
# First-rule-wins vs leftmost-position: engineered disagreements.
# ---------------------------------------------------------------------------


class TestFirstRuleWins:
    def test_later_rule_matching_earlier_position_loses(self):
        """The gate finds the leftmost-position literal; the ordered scan
        must still hand the win to the earlier *rule*."""
        compiled = CompiledRuleset(_ruleset(r"tail error", r"head fault"))
        assert compiled.literal_gate is not None
        # Rule 1 matches at position 0, rule 0 at position 11 — the
        # leftmost-position match is rule 1's, the winner is rule 0.
        assert compiled.match_index("head fault tail error") == 0

    def test_overlapping_prefix_rules(self):
        compiled = CompiledRuleset(
            _ruleset(r"disk error on sda", r"disk error")
        )
        assert compiled.match_index("disk error on sda") == 0
        assert compiled.match_index("disk error on sdb") == 1
        assert compiled.match_index("all quiet") is None

    def test_anchored_rule_vs_floating_rule(self):
        compiled = CompiledRuleset(_ruleset(r"^kernel: panic", r"panic"))
        assert compiled.match_index("kernel: panic now") == 0
        assert compiled.match_index("user: panic now") == 1

    @settings(max_examples=200, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["alpha beta", "beta gamma",
                                        "gamma alpha", "alpha", "beta",
                                        "gamma", "delta"]),
                       min_size=0, max_size=4),
    )
    def test_random_fragment_soups(self, kinds):
        compiled = CompiledRuleset(
            _ruleset(r"alpha beta", r"gamma", r"beta")
        )
        text = " ".join(kinds)
        assert compiled.match_index(text) == naive_index(compiled, text)


# ---------------------------------------------------------------------------
# Per-rule flags through the compiled path: a rule's flags reach its own
# regex and its gate literal, and no other rule's.
# ---------------------------------------------------------------------------


class TestScopedFlags:
    def test_ignorecase_stays_scoped_in_dispatch(self):
        ruleset = Ruleset(system="test", categories=(
            CategoryDef(name="CASED", system="test",
                        alert_type=AlertType.HARDWARE,
                        pattern=r"ECC error"),
            CategoryDef(name="LOOSE", system="test",
                        alert_type=AlertType.SOFTWARE,
                        pattern=r"link failure", flags=re.IGNORECASE),
        ))
        compiled = CompiledRuleset(ruleset)
        # The case-insensitive rule cannot skip by substring; the gate
        # wraps its literal in a case-blind group.
        assert [literal for literal, _, _ in compiled._scan] == \
            ["ECC error", None]
        assert "(?i:" in compiled.literal_gate.pattern
        assert compiled.match_index("LINK FAILURE on port 3") == 1
        assert compiled.match_index("ecc ERROR") is None
        assert compiled.match_index("ECC error") == 0

    def test_inline_global_flag_prefix_lifts_into_branch(self):
        compiled = CompiledRuleset(_ruleset(r"panic", r"(?i)fatal error"))
        # The inline flag reaches rule 1's gate literal and its scan
        # entry, and neither of rule 0's.
        assert compiled.literal_gate.pattern == r"panic|(?i:fatal\ error)"
        assert [literal for literal, _, _ in compiled._scan] == \
            ["panic", None]
        assert compiled.match_index("FATAL ERROR in ciod") == 1
        assert compiled.match_index("PANIC") is None
        assert compiled.match_index("panic") == 0

    def test_case_insensitive_rule_keeps_literal_gate_permissive(self):
        """A ``(?i)`` rule's literal-gate branch must be case-blind, or
        the gate would reject texts the rule matches."""
        compiled = CompiledRuleset(
            _ruleset(r"(?i)fatal error", r"disk fault")
        )
        if compiled.literal_gate is not None:
            assert compiled.match_index("FATAL ERROR") == 0

    def test_scoped_pattern_shapes(self):
        """Each rule's flags (``flags=`` or an inline group) apply to that
        rule alone, checked through ``match_index``."""
        ruleset = Ruleset(system="test", categories=(
            CategoryDef(name="A", system="test", alert_type=AlertType.HARDWARE,
                        pattern=r"plain.end"),
            CategoryDef(name="B", system="test", alert_type=AlertType.HARDWARE,
                        pattern=r"fold.end",
                        flags=re.IGNORECASE | re.DOTALL),
            CategoryDef(name="C", system="test", alert_type=AlertType.HARDWARE,
                        pattern=r"(?im)^line end$"),
        ))
        compiled = CompiledRuleset(ruleset)
        assert compiled.literal_gate is not None
        cases = {
            "plain end": 0,
            "PLAIN END": None,        # B's IGNORECASE does not leak to A
            "plain\nend": None,       # nor does its DOTALL
            "FOLD\nEND": 1,
            "x\nLINE END\ny": 2,
            "x LINE END y": None,     # C's MULTILINE anchors stay C's
        }
        for text, expected in cases.items():
            assert compiled.match_index(text) == expected, text
            assert naive_index(compiled, text) == expected, text

    def test_verbose_layout_whitespace_is_not_literal(self):
        """Regression: ``required_literal`` used to parse without
        ``VERBOSE``, so the literal kept the pattern's layout whitespace
        and the gate rejected texts the rule matches."""
        for rule in (
            CategoryDef(name="V", system="test", alert_type=AlertType.HARDWARE,
                        pattern=r"data  TLB  error", flags=re.VERBOSE),
            CategoryDef(name="V", system="test", alert_type=AlertType.HARDWARE,
                        pattern=r"(?x)data  TLB  error"),
        ):
            assert required_literal(rule.pattern, rule.flags) == \
                "dataTLBerror"
            compiled = CompiledRuleset(
                Ruleset(system="test", categories=(rule,))
            )
            assert rule.compiled().search("dataTLBerror")
            assert compiled.match_index("dataTLBerror") == 0
            assert compiled.match_index("data  TLB  error") is None


# ---------------------------------------------------------------------------
# Constructs that used to break a combined pattern (named groups,
# backreferences, conditionals) and forced a fallback mode now compile
# like any other rule: no rule regex is ever combined with another.
# ---------------------------------------------------------------------------


class TestFallbackMode:
    @pytest.mark.parametrize("pattern", [
        r"(?P<name>abc)def",          # named group
        r"(abc) \1",                  # numeric backreference
        r"(?P<g>a)(?P=g)",            # named backreference
        r"(a)(?(1)b|c)",              # conditional
    ])
    def test_unsafe_construct_disables_dispatch(self, pattern):
        """The construct compiles in either rule position and the
        ordered scan agrees with the naive loop."""
        texts = ["plain error here", "abcdef", "abc abc", "aa", "ab",
                 "ac", "plain error abcdef", "nothing"]
        for patterns in ((r"plain error", pattern), (pattern, r"plain error")):
            compiled = CompiledRuleset(_ruleset(*patterns))
            assert len(compiled._scan) == 2
            for text in texts:
                assert compiled.match_index(text) == \
                    naive_index(compiled, text), (patterns, text)
        compiled = CompiledRuleset(_ruleset(r"plain error", pattern))
        assert compiled.match_index("plain error here") == 0

    def test_fallback_agrees_with_naive_scan(self):
        for patterns in ((r"(abc) \1 tail", r"abc"),
                         (r"abc", r"(abc) \1 tail")):
            compiled = CompiledRuleset(_ruleset(*patterns))
            for text in ["abc abc tail", "abc", "nothing", "xabcx"]:
                assert compiled.match_index(text) == \
                    naive_index(compiled, text), (patterns, text)

    def test_backreference_after_another_rules_group(self):
        """Regression: a combined prefilter renumbered ``\\1`` to the
        first rule's group, so ``"c c"`` was rejected although rule 1
        matches it."""
        compiled = CompiledRuleset(_ruleset(r"(a)b", r"(c) \1"))
        assert naive_index(compiled, "c c") == 1
        assert compiled.match_index("c c") == 1
        assert compiled.match_texts(["ab", "c c", "c a"]) == [
            (0, compiled.categories[0]), (1, compiled.categories[1]),
        ]

    def test_shared_group_name_compiles(self):
        """Regression: two rules that each compile alone but share a
        group name made the combined compile raise ``redefinition of
        group name``."""
        compiled = CompiledRuleset(
            _ruleset(r"(?P<host>sn\d+) down", r"(?P<host>ln\d+) panic")
        )
        assert compiled.match_index("sn12 down") == 0
        assert compiled.match_index("ln3 panic") == 1
        assert compiled.match_index("sn12 panic") is None

    def test_empty_ruleset(self):
        compiled = CompiledRuleset(Ruleset(system="test", categories=()))
        assert compiled.match_index("anything") is None
        assert compiled.match_texts(["a", "b"]) == []


# ---------------------------------------------------------------------------
# required_literal units.
# ---------------------------------------------------------------------------


class TestRequiredLiteral:
    def test_plain_literal(self):
        assert required_literal(r"machine check interrupt") == \
            "machine check interrupt"
        # Edge spaces are stripped: a gate literal should not open on
        # the commonest character in a line.
        assert required_literal(r"\d+ input pipe error ") == \
            "input pipe error"

    def test_longest_run_wins(self):
        assert required_literal(r"ab.*parity_interrupt") == \
            "parity_interrupt"

    def test_escaped_metacharacters_count_as_literals(self):
        assert required_literal(r"gm_parity\.c") == "gm_parity.c"

    def test_top_level_alternation_has_no_required_literal(self):
        assert required_literal(r"abcdef|ghijkl") is None

    def test_quantified_tail_is_not_required(self):
        # The quantifier detaches its operand from the literal run.
        assert required_literal(r"warning(s)?") == "warning"

    def test_short_literal_rejected(self):
        assert required_literal(r"ab.*cd") is None
        assert required_literal(r" ab .*cd") is None

    def test_unparsable_pattern_is_none(self):
        assert required_literal(r"(unclosed") is None

    def test_inline_flag_prefix_is_lifted(self):
        assert required_literal(r"(?i)fatal error") == "fatal error"

    def test_literal_is_actually_required(self):
        """Semantic check: every match of the pattern contains the
        extracted literal."""
        cases = [
            (r"data TLB error interrupt", "data TLB error interrupt"),
            (r"\d+ double-hummer exceptions?", " double-hummer exception"),
            (r"NMI: +received", None),  # run broken by quantified space
        ]
        for pattern, expected in cases:
            literal = required_literal(pattern)
            if expected is None:
                continue
            assert literal is not None and len(literal) >= 4, pattern
            compiled = re.compile(pattern)
            probe = "zz 12 double-hummer exceptions zz"
            found = compiled.search(probe)
            if found:
                assert literal in probe
