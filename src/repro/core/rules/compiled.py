"""Compiled-ruleset fast path: a literal gate, then the ordered scan.

The tagger's rules are ordered and the first rule that matches wins
(logsurfer semantics, Section 3.2).  Almost every record in a real log
matches no rule, so the cost that matters is rejecting chaff.  This
module compiles a ruleset once into that shape, without ever combining
rule regexes (a combined pattern renumbers backreferences and collides
group names):

* every rule keeps its own compiled pattern and its *skip literal* — a
  plain substring every match must contain (:func:`required_literal`),
  or ``None`` when the rule has none or is case-insensitive;
* one *literal gate* — the rules' required literals compiled as a
  single regex with common prefixes shared like a trie, case-insensitive
  literals under ``(?i:...)`` — rejects a text in one C-level search
  when no rule's literal is present (the cheap gate of the
  semi-supervised log-processing fast path; see PAPERS.md);
* a text that passes runs the ordered scan, which skips a rule whose
  skip literal is not a substring of the text (a rule cannot match
  without its required literal) and otherwise runs that rule's own
  ``search``.  The first hit wins, exactly as the naive loop picks.

When any rule has no required literal there is no gate and every text
takes the scan.  All five system rulesets have a gate.

Compiled state is cached per process for the registered system rulesets
(:func:`compiled_ruleset`), which is what makes
:meth:`~repro.core.tagging.RulesetHandle.compiled` cheap to call from
worker initializers and batch paths alike.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Pattern, Sequence, Tuple

from ..categories import CategoryDef, Ruleset

#: A literal shorter than this filters nothing worth the extra pass.
_MIN_LITERAL = 4


def required_literal(pattern: str, flags: int = 0) -> Optional[str]:
    """A plain substring every match of ``pattern`` must contain.

    Parses ``pattern`` with its real flags (inline ``(?x)``-style groups
    included, so a ``VERBOSE`` rule's layout whitespace is not part of
    the literal) and walks the top-level concatenation: a maximal run of
    LITERAL nodes there is required in every match (each concatenation
    element must be consumed).  Returns the longest such run, or
    ``None`` when the pattern yields nothing usable (pure alternation,
    literals too short once edge whitespace is stripped, unparsable
    text) — callers must treat ``None`` as "cannot prefilter", never as
    "matches nothing".  Under ``IGNORECASE`` the run is required only
    up to case.
    """
    try:
        parsed = re._parser.parse(pattern, flags)
    except Exception:
        return None
    best: List[int] = []
    run: List[int] = []
    for op, arg in parsed:
        if str(op) == "LITERAL":
            run.append(arg)
        else:
            if len(run) > len(best):
                best = run
            run = []
    if len(run) > len(best):
        best = run
    # Edge spaces are dropped: a gate literal that opens with the
    # commonest character in a log line wakes at every word.
    literal = "".join(map(chr, best)).strip()
    return literal if len(literal) >= _MIN_LITERAL else None


def _trie_pattern(literals: Sequence[str]) -> str:
    """A regex matching any of ``literals``, common prefixes shared.

    The gate only asks whether *some* literal is present, so a literal
    that extends a shorter one is dropped: the shorter one is in the
    text whenever the longer one is.
    """
    trie: dict = {}
    for literal in sorted(set(literals), key=len):
        node = trie
        for ch in literal[:-1]:
            node = node.setdefault(ch, {})
            if node is None:  # a shorter literal is a prefix of this one
                break
        else:
            node[literal[-1]] = None

    def render(node: dict) -> str:
        branches = [
            re.escape(ch) + ("" if child is None else render(child))
            for ch, child in sorted(node.items())
        ]
        if len(branches) == 1:
            return branches[0]
        return "(?:" + "|".join(branches) + ")"

    return render(trie)


class CompiledRuleset:
    """One ruleset compiled for batch tagging.

    :meth:`match_index` / :meth:`match_text` preserve first-rule-wins
    semantics exactly (the hypothesis differential suite in
    ``tests/core/test_compiled_rules.py`` pins this against the naive
    ordered scan for all five system rulesets and ad-hoc rulesets).
    """

    def __init__(self, ruleset: Ruleset):
        self.ruleset = ruleset
        categories = tuple(ruleset)
        self.categories = categories
        self._ordered: Tuple[Tuple[Pattern[str], CategoryDef], ...] = tuple(
            (cat.compiled(), cat) for cat in categories
        )
        cased: List[str] = []
        caseless: List[str] = []
        scan = []
        for k, (pattern, cat) in enumerate(self._ordered):
            literal = required_literal(cat.pattern, cat.flags)
            ignorecase = bool(pattern.flags & re.IGNORECASE)
            if literal is not None:
                (caseless if ignorecase else cased).append(literal)
            scan.append((None if ignorecase else literal, pattern.search, k))
        #: ``(skip literal, rule search, rule index)`` in rule order.
        self._scan: Tuple[Tuple[Optional[str], Callable, int], ...] = tuple(scan)
        self.literal_gate: Optional[Pattern[str]] = None
        if categories and len(cased) + len(caseless) == len(categories):
            branches = [_trie_pattern(cased)] if cased else []
            if caseless:
                branches.append(f"(?i:{_trie_pattern(caseless)})")
            self.literal_gate = re.compile("|".join(branches))

    # -- matching ----------------------------------------------------------

    def match_index(self, text: str) -> Optional[int]:
        """Index of the first rule matching ``text``, or ``None``."""
        gate = self.literal_gate
        if gate is not None and gate.search(text) is None:
            return None
        return self._scan_index(text)

    def _scan_index(self, text: str) -> Optional[int]:
        """The ordered first-rule-wins scan, skipping absent literals."""
        for literal, search, k in self._scan:
            if literal is not None and literal not in text:
                continue
            if search(text) is not None:
                return k
        return None

    def match_text(self, text: str) -> Optional[CategoryDef]:
        """The first rule matching ``text``, or ``None``."""
        index = self.match_index(text)
        if index is None:
            return None
        return self.categories[index]

    def match_texts(self, texts: Sequence[str]) -> List[Tuple[int, CategoryDef]]:
        """``(position, category)`` for every matching text, in order.

        The strict batch form: a non-string element raises exactly as the
        per-record path would (``re`` rejects it), at the same position —
        everything before it has already been resolved.
        """
        hits: List[Tuple[int, CategoryDef]] = []
        categories = self.categories
        scan_index = self._scan_index
        # The gate inlined, so the ~no-alert majority costs one C call
        # per text; with no gate every text takes the scan.
        gate = self.literal_gate
        search = gate.search if gate is not None else None
        for i, text in enumerate(texts):
            if search is not None and search(text) is None:
                continue
            index = scan_index(text)
            if index is not None:
                hits.append((i, categories[index]))
        return hits


#: Per-process compiled cache for the *registered* system rulesets (the
#: only ones that cross process boundaries via RulesetHandle).  Ad-hoc
#: rulesets compile fresh per Tagger, as they always have.
_COMPILED_CACHE: Dict[str, CompiledRuleset] = {}


def compiled_ruleset(ruleset: Ruleset) -> CompiledRuleset:
    """The :class:`CompiledRuleset` for ``ruleset``, cached per process
    when the ruleset is a registered system ruleset."""
    from . import RULESETS

    cached = _COMPILED_CACHE.get(ruleset.system)
    if cached is not None and cached.ruleset is ruleset:
        return cached
    compiled = CompiledRuleset(ruleset)
    if RULESETS.get(ruleset.system) is ruleset:
        _COMPILED_CACHE[ruleset.system] = compiled
    return compiled


__all__ = [
    "CompiledRuleset",
    "compiled_ruleset",
    "required_literal",
]
