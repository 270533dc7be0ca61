"""Alert categories, types, and the tagged-alert model.

The paper (Section 3.2) defines an *alert* as "a message in the system logs
that merits the attention of the system administrator", identified by
expert-supplied rules.  Every alert carries:

* a **category** — "two alerts are in the same category if they were tagged
  by the same expert rule" (Section 3.3); the paper observes 77 categories
  across the five systems (Table 4 lists the most common);
* a **type** — Hardware, Software, or Indeterminate, "based on each
  administrator's best understanding of the alert, and may not necessarily
  be root cause" (Section 3.2, Table 3).

This module defines the shared vocabulary; the per-system expert rules live
in :mod:`repro.core.rules`.  A tagged :class:`Alert` is, like the
:class:`~repro.logmodel.record.LogRecord` it wraps, an immutable named
tuple: every tagging path builds one per hit, and it compares and hashes
by its four hot fields alone.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional, Pattern, Tuple

from ..logmodel.record import Channel, KeyedTuple, LogRecord


class AlertType(enum.Enum):
    """Ostensible subsystem of origin (paper, Section 3.2).

    ``INDETERMINATE`` alerts "can originate from both hardware and
    software, or have unknown cause" (Table 4 caption).
    """

    HARDWARE = "H"
    SOFTWARE = "S"
    INDETERMINATE = "I"

    @classmethod
    def from_code(cls, code: str) -> "AlertType":
        """Parse the one-letter code used in the paper's tables."""
        for member in cls:
            if member.value == code:
                return member
        raise ValueError(f"unknown alert type code: {code!r}")


BodyFactory = Callable[..., str]


@dataclass(frozen=True)
class CategoryDef:
    """One expert rule: the category it defines and how to recognize it.

    The same definition serves both directions of the reproduction: the
    **tagger** applies ``pattern`` to a record's facility-prefixed text
    (regular-expression matching in the style of the ``logsurfer`` rules the
    administrators supplied, Section 3.2), and the **generator** emits
    bodies via ``body_factory`` that the pattern is guaranteed to match.

    Attributes
    ----------
    name:
        Category tag, e.g. ``"KERNDTLB"`` or ``"PBS_CHK"``.
    system:
        Short machine name the rule belongs to.
    alert_type:
        Hardware / Software / Indeterminate.
    pattern:
        Regex applied (``re.search``) to ``record.full_text()``.
    facility:
        Facility the generator stamps on records of this category.
    severity:
        Severity label the generator stamps (``None`` for systems that do
        not record severity).
    channel:
        Logging path records of this category travel.
    example:
        Anonymized example body, as in the paper's Table 4.
    body_factory:
        Callable ``(rng) -> str`` producing a concrete message body; falls
        back to ``example`` when not given.  Excluded from equality so
        category definitions compare by identity-relevant fields only.
    flags:
        ``re`` flags (e.g. ``re.IGNORECASE``) applied when compiling
        ``pattern``.  They apply to this rule alone: the tagger never
        combines rule patterns, and its literal gate reads them to
        extract the rule's required literal (see
        ``repro.core.rules.compiled.required_literal``).
    """

    name: str
    system: str
    alert_type: AlertType
    pattern: str
    facility: str = ""
    severity: Optional[str] = None
    channel: Channel = Channel.SYSLOG_UDP
    example: str = ""
    body_factory: Optional[BodyFactory] = field(default=None, compare=False)
    flags: int = 0

    def compiled(self) -> Pattern[str]:
        """The compiled regex (compiled fresh; rulesets cache these)."""
        return re.compile(self.pattern, self.flags)

    def make_body(self, rng=None) -> str:
        """A concrete message body for this category."""
        if self.body_factory is not None:
            return self.body_factory(rng)
        return self.example


class Alert(KeyedTuple, namedtuple(
    "Alert", "timestamp source category alert_type record"
)):
    """A log record tagged as an alert by an expert rule.

    Alerts are the unit the filtering algorithms operate on.  ``timestamp``,
    ``source``, and ``category`` are duplicated out of ``record`` because the
    filters touch only these three fields on every input and the hot path
    should not chase attribute chains.  Like a record, an alert is an
    immutable named tuple; ``record`` rides along, outside equality and
    hashing (:class:`~repro.logmodel.record.KeyedTuple`).
    """

    __slots__ = ()

    @classmethod
    def from_record(cls, record: LogRecord, category: CategoryDef) -> "Alert":
        return cls(record.timestamp, record.source, category.name,
                   category.alert_type, record)


@dataclass(frozen=True)
class Ruleset:
    """An ordered collection of expert rules for one system.

    Order matters: like ``logsurfer``, the first matching rule wins, so
    more specific rules must precede more general ones.
    """

    system: str
    categories: Tuple[CategoryDef, ...]

    def __post_init__(self) -> None:
        names = [cat.name for cat in self.categories]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(
                f"duplicate category names in {self.system} ruleset: {sorted(duplicates)}"
            )
        foreign = [cat.name for cat in self.categories if cat.system != self.system]
        if foreign:
            raise ValueError(
                f"categories {foreign} do not belong to system {self.system!r}"
            )

    def get(self, name: str) -> CategoryDef:
        """Look up a category by tag name."""
        for cat in self.categories:
            if cat.name == name:
                return cat
        raise KeyError(f"no category {name!r} in {self.system} ruleset")

    def names(self) -> Tuple[str, ...]:
        """All category tags, in rule order."""
        return tuple(cat.name for cat in self.categories)

    def __len__(self) -> int:
        return len(self.categories)

    def __iter__(self):
        return iter(self.categories)
