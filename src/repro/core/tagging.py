"""The alert tagger: applies expert rules to log records.

This reproduces the paper's alert-identification process (Section 3.2):
regular-expression rules, one per category, applied to each message; the
first matching rule tags the message as an alert of that rule's category.
Like ``logsurfer``, rules are ordered and first-match wins.

The tagger is a single pass and never raises on corrupted input — the
paper's Section 3.2.1 lists corruption among the challenges an automated
scheme must survive.  Corrupted records can still be tagged when enough of
the body remains for a pattern to match (a truncated VAPI line that kept
its "Local Catastrophic Error" core is still a VAPI alert), which mirrors
the manual process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Pattern, Sequence, Tuple

from ..logmodel.record import LogRecord, full_texts
from .categories import Alert, CategoryDef, Ruleset
from .rules.compiled import CompiledRuleset, compiled_ruleset

__all__ = [
    "BatchOutcome",
    "RulesetHandle",
    "TagCount",
    "Tagger",
    "count_by_category",
    "count_by_type",
    "observed_categories",
]


class Tagger:
    """A compiled expert ruleset, applied record-by-record.

    Parameters
    ----------
    ruleset:
        The ordered rules for one system.

    Notes
    -----
    Compilation happens once here (cached per process for registered
    system rulesets).  :meth:`tag` is the hot path: almost every record
    in a real log matches *no* rule (Liberty: 2,452 alerts in 265 M
    messages), so matching runs through the
    :class:`~repro.core.rules.compiled.CompiledRuleset` — one literal
    gate over the rules' required literals rejects chaff in a single
    search, and a text that passes runs the ordered scan, which skips
    every rule whose literal is absent and otherwise runs that rule's
    own regex.  Rule regexes are never combined, so each keeps its own
    flags and groups, and logsurfer's first-rule-wins semantics hold
    exactly.
    """

    def __init__(self, ruleset: Ruleset):
        self.ruleset = ruleset
        self._fast: CompiledRuleset = compiled_ruleset(ruleset)
        #: The per-rule (pattern, category) list in rule order: the plain
        #: ordered scan, with no gate and no literal skips.
        self._compiled: List[Tuple[Pattern[str], CategoryDef]] = list(
            self._fast._ordered
        )
        #: The compiled fast path the match methods delegate to.  Setting
        #: this to ``None`` makes them run the plain scan over
        #: ``_compiled`` instead (the differential tests use that to
        #: build a reference tagger).
        self._prefilter: Optional[CompiledRuleset] = self._fast

    def match_text(self, text: str) -> Optional[CategoryDef]:
        """The first rule matching ``text``, or ``None``."""
        if self._prefilter is None:
            for pattern, category in self._compiled:
                if pattern.search(text):
                    return category
            return None
        return self._prefilter.match_text(text)

    def match_texts(self, texts: Sequence[str]) -> List[Tuple[int, CategoryDef]]:
        """Batch form of :meth:`match_text`: ``(position, category)`` for
        every matching text, in order.  Strict: a non-string element
        raises exactly as the per-record path would."""
        if self._prefilter is None:
            compiled = self._compiled
            hits: List[Tuple[int, CategoryDef]] = []
            for i, text in enumerate(texts):
                for pattern, category in compiled:
                    if pattern.search(text):
                        hits.append((i, category))
                        break
            return hits
        return self._prefilter.match_texts(texts)

    def match(self, record: LogRecord) -> Optional[CategoryDef]:
        """The first rule matching this record, or ``None``."""
        return self.match_text(record.full_text())

    def tag(self, record: LogRecord) -> Optional[Alert]:
        """Tag one record; ``None`` when no rule matches (not an alert)."""
        category = self.match(record)
        if category is None:
            return None
        return Alert.from_record(record, category)

    def tag_stream(
        self, records: Iterable[LogRecord], dead_letters=None
    ) -> Iterator[Alert]:
        """Lazily tag a record stream, yielding only the alerts.

        ``dead_letters`` (a :class:`~repro.resilience.deadletter.
        DeadLetterQueue`) makes the pass total: a record that crashes the
        rules engine — a body that is not a string, a pathological field
        mix from corruption — is quarantined under ``"tagger-error"``
        instead of killing the stream.  Without a queue the exception
        propagates, as before.
        """
        for record in records:
            try:
                alert = self.tag(record)
            except Exception as exc:
                if dead_letters is None:
                    raise
                dead_letters.put(record, "tagger-error", repr(exc))
                continue
            if alert is not None:
                yield alert

    def tag_batch(self, records: Sequence[LogRecord]) -> "BatchOutcome":
        """Tag one batch, returning a compact, picklable outcome.

        This is the outcome contract of the parallel execution layer
        (:mod:`repro.parallel`), its serial fallback for a crashed batch,
        and how the bounded driver tags a tick's arrivals in process:
        one :meth:`match_texts` pass, the per-record loop only when that
        raises.  The outcome records only the *hits* (almost every
        record in a real log matches no rule) and the per-record
        failures, mirroring :meth:`tag_stream`'s quarantine semantics.
        """
        errors: List[Tuple[int, str]] = []
        try:
            matches = self.match_texts(full_texts(records))
            hits = [(i, Alert.from_record(records[i], cat)) for i, cat in matches]
        except Exception:  # some record crashes the rules engine: find which
            hits = []
            for index, record in enumerate(records):
                try:
                    alert = self.tag(record)
                except Exception as exc:
                    errors.append((index, repr(exc)))
                    continue
                if alert is not None:
                    hits.append((index, alert))
        return BatchOutcome(size=len(records), hits=tuple(hits),
                            errors=tuple(errors))


@dataclass(frozen=True)
class BatchOutcome:
    """The result of tagging one record batch.

    ``hits`` holds ``(index_within_batch, alert)`` pairs for the records
    a rule matched; ``errors`` holds ``(index, repr(exception))`` for the
    records that crashed the rules engine.  Every other index in
    ``range(size)`` matched no rule.  All fields pickle cheaply — the
    whole point: a million-record batch of chatter returns as a few
    hundred bytes instead of a million ``None``\\ s.
    """

    size: int
    hits: Tuple[Tuple[int, Alert], ...] = ()
    errors: Tuple[Tuple[int, str], ...] = ()

    def hit_map(self) -> Dict[int, Alert]:
        return dict(self.hits)

    def error_map(self) -> Dict[int, str]:
        return dict(self.errors)


@dataclass(frozen=True)
class RulesetHandle:
    """A picklable reference to a named system's ruleset.

    Compiled patterns and the ``body_factory`` callables inside
    :class:`CategoryDef` do not pickle, so worker processes receive this
    handle instead and compile the ruleset once per process
    (:func:`resolve` / :func:`tagger`).  Only the registered system
    rulesets can travel this way; ad-hoc rulesets stay in-process.
    """

    system: str

    def resolve(self) -> Ruleset:
        from .rules import get_ruleset

        return get_ruleset(self.system)

    def tagger(self) -> Tagger:
        return Tagger(self.resolve())

    def compiled(self) -> CompiledRuleset:
        """The per-process cached compiled form of this system's ruleset
        (worker initializers and batch paths share one compile)."""
        return compiled_ruleset(self.resolve())


@dataclass(frozen=True)
class TagCount:
    """Per-category tally, one row of the paper's Table 4."""

    category: str
    alert_type: str
    count: int


def count_by_category(alerts: Iterable[Alert]) -> Dict[str, int]:
    """Tally alerts per category tag."""
    counts: Dict[str, int] = {}
    for alert in alerts:
        counts[alert.category] = counts.get(alert.category, 0) + 1
    return counts


def count_by_type(alerts: Iterable[Alert]) -> Dict[str, int]:
    """Tally alerts per type code (H/S/I), one margin of Table 3."""
    counts: Dict[str, int] = {}
    for alert in alerts:
        code = alert.alert_type.value
        counts[code] = counts.get(code, 0) + 1
    return counts


def observed_categories(alerts: Iterable[Alert]) -> int:
    """Number of distinct categories actually observed (Table 2 column).

    The paper notes "the categories column indicates the number of
    categories that were actually observed in each log" — a category with
    zero occurrences does not count.
    """
    return len({alert.category for alert in alerts})
