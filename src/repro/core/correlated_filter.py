"""Correlation-aware filtering across categories.

The paper's Figure 3 shows two Liberty categories — ``GM_PAR`` (Myrinet
NIC parity panic, Hardware) and ``GM_LANAI`` (LANai not running, Software)
— whose occurrences are clearly correlated because they are two faces of
the same underlying failure, yet "current tagging and filtering techniques
do not adequately address this situation": a per-category filter keeps one
alert of *each* tag per failure.  Section 5 recommends "filters that are
aware of correlations among messages", which this module implements in two
parts:

* :func:`learn_correlated_groups` — measures, for every category pair, how
  often their alerts co-occur within a window, and unions pairs whose
  co-occurrence rate clears a confidence bar into *alias groups*;
* :func:`alias_key` — the key that runs Algorithm 3.1 on alias groups,
  ``SpatioTemporalFilter(T, key=alias_key(groups))``: all categories in a
  group share one redundancy clock, so the GM_PAR followed two seconds
  later by GM_LANAI collapses to a single alert.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from .categories import Alert


def pair_cooccurrence(
    alerts: Iterable[Alert],
    window: float = 60.0,
) -> Dict[Tuple[str, str], int]:
    """Count, per unordered category pair, windows where both fired.

    A sliding pass over the time-sorted stream: each alert is paired with
    every *different* category seen within the trailing ``window`` seconds,
    at most once per (alert, other-category).  Returns counts keyed by
    sorted category pairs.

    The window is tracked as a deque plus a per-category counter, so each
    alert costs O(distinct categories in window) rather than O(window
    population) — a storm of a million same-category alerts (Spirit's
    reality) stays linear.
    """
    from collections import deque

    recent: "deque[Tuple[float, str]]" = deque()
    in_window: Dict[str, int] = {}
    counts: Dict[Tuple[str, str], int] = {}
    for alert in alerts:
        while recent and alert.timestamp - recent[0][0] > window:
            _, old_category = recent.popleft()
            remaining = in_window[old_category] - 1
            if remaining:
                in_window[old_category] = remaining
            else:
                del in_window[old_category]
        for other_category in in_window:
            if other_category != alert.category:
                key = (
                    (alert.category, other_category)
                    if alert.category < other_category
                    else (other_category, alert.category)
                )
                counts[key] = counts.get(key, 0) + 1
        recent.append((alert.timestamp, alert.category))
        in_window[alert.category] = in_window.get(alert.category, 0) + 1
    return counts


def learn_correlated_groups(
    alerts: Iterable[Alert],
    window: float = 60.0,
    min_cooccurrence: int = 3,
    min_rate: float = 0.5,
) -> List[FrozenSet[str]]:
    """Union correlated categories into alias groups.

    A pair qualifies when it co-occurred at least ``min_cooccurrence``
    times *and* the co-occurrence count is at least ``min_rate`` of the
    rarer category's total count — i.e. the rarer tag mostly appears next
    to the other, which is the Figure 3 signature ("GM_LANAI messages do
    not always follow GM_PAR messages, nor vice versa.  However, the
    correlation is clear").  Qualifying pairs are merged transitively
    (union-find) into groups.  The alerts are read once, so any iterable
    works.
    """
    totals: Dict[str, int] = {}

    def counted() -> Iterator[Alert]:
        for alert in alerts:
            totals[alert.category] = totals.get(alert.category, 0) + 1
            yield alert

    pairs = pair_cooccurrence(counted(), window)
    parent: Dict[str, str] = {}

    def find(tag: str) -> str:
        parent.setdefault(tag, tag)
        while parent[tag] != tag:
            parent[tag] = parent[parent[tag]]
            tag = parent[tag]
        return tag

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (cat_a, cat_b), count in pairs.items():
        rarer = min(totals.get(cat_a, 0), totals.get(cat_b, 0))
        if rarer == 0:
            continue
        if count >= min_cooccurrence and count / rarer >= min_rate:
            union(cat_a, cat_b)

    groups: Dict[str, Set[str]] = {}
    for tag in parent:
        groups.setdefault(find(tag), set()).add(tag)
    return [frozenset(members) for members in groups.values() if len(members) > 1]


def alias_key(groups: Iterable[FrozenSet[str]]) -> Callable[[Alert], str]:
    """The redundancy-clock key of an alert under alias groups: the
    smallest category of its group, or its own category when ungrouped.

    Categories in the same group share a clock, so an alert is redundant
    when *any category of its group* was reported within the threshold.
    A category in two different groups is a ``ValueError``.
    """
    alias: Dict[str, str] = {}
    for group in groups:
        canonical = min(group)
        for member in group:
            if alias.setdefault(member, canonical) != canonical:
                raise ValueError(f"category {member!r} appears in multiple groups")
    return lambda alert: alias.get(alert.category, alert.category)
