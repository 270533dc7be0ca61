"""Unit tests for frequent-template mining."""

import pytest

from repro.analysis.patterns import (
    Template,
    mine_templates,
    suggest_rules,
    template_coverage,
)


def _corpus():
    bodies = []
    for i in range(50):
        bodies.append(f"pbs_mom: task_check, cannot tm_reply to {i}.admin task 1")
    for i in range(30):
        bodies.append(f"kernel: EXT3-fs error (device sda{i % 4}): aborted")
    bodies.extend(["one-off message alpha", "one-off message beta"])
    return bodies


class TestMineTemplates:
    def test_finds_dominant_templates(self):
        templates = mine_templates(_corpus(), min_support=10)
        patterns = [t.pattern() for t in templates]
        assert any("task_check," in p and "*" in p for p in patterns)
        assert any("EXT3-fs" in p for p in patterns)

    def test_wildcards_at_variable_positions(self):
        templates = mine_templates(_corpus(), min_support=10)
        pbs = next(t for t in templates if "task_check," in t.pattern())
        # The job id position is variable -> wildcard.
        assert "*" in pbs.tokens
        assert "task_check," in pbs.tokens

    def test_support_ordering(self):
        templates = mine_templates(_corpus(), min_support=10)
        supports = [t.support for t in templates]
        assert supports == sorted(supports, reverse=True)
        assert templates[0].support == 50

    def test_rare_lines_dropped(self):
        templates = mine_templates(_corpus(), min_support=10)
        assert not any("one-off" in t.pattern() for t in templates)

    def test_min_support_validation(self):
        with pytest.raises(ValueError):
            mine_templates([], min_support=0)

    def test_empty_corpus(self):
        assert mine_templates([], min_support=1) == []

    def test_max_templates_cap(self):
        bodies = [f"unique prefix {i} common tail" for i in range(30)] * 2
        templates = mine_templates(bodies, min_support=2, max_templates=5)
        assert len(templates) <= 5


class TestTemplateMatching:
    def test_matches_instantiations(self):
        template = Template(
            tokens=("error", "on", "*"), support=5, example="error on sda",
        )
        assert template.matches("error on sdb")
        assert not template.matches("error on")          # length differs
        assert not template.matches("warning on sdb")    # literal differs

    def test_coverage(self):
        templates = mine_templates(_corpus(), min_support=10)
        coverage = template_coverage(templates, _corpus())
        assert coverage == pytest.approx(80 / 82, abs=0.02)

    def test_coverage_empty(self):
        assert template_coverage([], []) == 0.0


class TestSuggestRules:
    def test_rules_are_valid_regexes_matching_the_source_lines(self):
        import re

        templates = mine_templates(_corpus(), min_support=10)
        rules = suggest_rules(templates)
        assert rules
        corpus = _corpus()
        for rule in rules:
            compiled = re.compile(rule)
            assert any(compiled.search(body) for body in corpus), rule

    def test_too_generic_templates_skipped(self):
        template = Template(
            tokens=("*", "*", "x"), support=100, example="a b x",
        )
        assert suggest_rules([template], min_literal_words=3) == []


class TestOnGeneratedLog:
    def test_mined_templates_align_with_calibrated_categories(self):
        """Unsupervised mining over a generated Liberty log recovers the
        PBS-bug template as the top alert-side cluster."""
        from repro.simulation.generator import generate_log

        records = list(
            generate_log("liberty", scale=1e-4, seed=5, corruption=0.0).records
        )
        bodies = [r.full_text() for r in records]
        templates = mine_templates(bodies, min_support=30)
        assert any("task_check," in t.pattern() for t in templates)
        assert template_coverage(templates, bodies) > 0.9
