"""Frequent message-template mining (Vaarandi-style clustering).

The paper's related work includes Vaarandi's "breadth-first algorithm for
mining frequent patterns from event logs" [27] and frames automatic alert
identification as an open problem whose first step is taming "the
unstructured message bodies ... the shorthand of multiple programmers"
(Section 3.2.1).  This module implements the SLCT-family approach:

1. count frequent (position, word) pairs over the message bodies;
2. form each line's *template* by keeping its frequent words and masking
   the rest as ``*`` wildcards;
3. cluster lines by template and report clusters by support.

The miner gives an unsupervised view of a log that an analyst can compare
against the expert rules: on generated data, the dominant mined templates
correspond to the calibrated categories — which the test suite checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

WILDCARD = "*"


@dataclass(frozen=True)
class Template:
    """One mined message template."""

    tokens: Tuple[str, ...]
    support: int
    example: str

    def pattern(self) -> str:
        """The template as a display string, wildcards as ``*``."""
        return " ".join(self.tokens)

    def matches(self, text: str) -> bool:
        """Whether a message body instantiates this template."""
        words = text.split()
        if len(words) != len(self.tokens):
            return False
        return all(
            token == WILDCARD or token == word
            for token, word in zip(self.tokens, words)
        )


def _line_template(
    words: Sequence[str],
    frequent: "set[Tuple[int, str]]",
) -> Tuple[str, ...]:
    return tuple(
        word if (i, word) in frequent else WILDCARD
        for i, word in enumerate(words)
    )


def mine_templates(
    bodies: Iterable[str],
    min_support: int = 10,
    max_templates: int = 100,
) -> List[Template]:
    """Mine frequent templates from message bodies.

    Two passes (the bodies iterable must be re-iterable or a list):
    first counts (position, word) frequencies, second forms templates.
    Templates with fewer than ``min_support`` lines are dropped; the rest
    are returned in decreasing support order.
    """
    if min_support < 1:
        raise ValueError("min_support must be at least 1")
    bodies = list(bodies)

    word_counts: Counter = Counter()
    for body in bodies:
        for i, word in enumerate(body.split()):
            word_counts[(i, word)] += 1
    frequent = {
        key for key, count in word_counts.items() if count >= min_support
    }

    clusters: Dict[Tuple[str, ...], List[str]] = {}
    for body in bodies:
        template = _line_template(body.split(), frequent)
        clusters.setdefault(template, []).append(body)

    templates = [
        Template(tokens=tokens, support=len(lines), example=lines[0])
        for tokens, lines in clusters.items()
        if len(lines) >= min_support and any(t != WILDCARD for t in tokens)
    ]
    templates.sort(key=lambda t: (-t.support, t.pattern()))
    return templates[:max_templates]


def template_coverage(
    templates: Sequence[Template], bodies: Iterable[str]
) -> float:
    """Fraction of bodies matched by at least one mined template."""
    bodies = list(bodies)
    if not bodies:
        return 0.0
    matched = sum(
        1
        for body in bodies
        if any(template.matches(body) for template in templates)
    )
    return matched / len(bodies)


def suggest_rules(
    templates: Sequence[Template],
    max_rules: int = 20,
    min_literal_words: int = 3,
) -> List[str]:
    """Turn mined templates into candidate regex rules.

    The bridge from unsupervised mining to the expert-rule workflow: each
    sufficiently literal template becomes an anchored regex an
    administrator could review, edit, and adopt — the "automatically
    identifying alerts" direction the paper marks as open.
    """
    import re as _re

    rules: List[str] = []
    for template in templates:
        literals = [t for t in template.tokens if t != WILDCARD]
        if len(literals) < min_literal_words:
            continue
        parts = [
            _re.escape(token) if token != WILDCARD else r"\S+"
            for token in template.tokens
        ]
        rules.append(" ".join(parts))
        if len(rules) >= max_rules:
            break
    return rules
