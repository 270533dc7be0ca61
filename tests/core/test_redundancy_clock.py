"""One redundancy clock, four filters: a differential against the filters
it replaced.

Algorithm 3.1, the Liang et al. serial baseline, per-category thresholds
and correlation-aware filtering used to keep four clocks of their own.
Each is now a parameterisation of :class:`SpatioTemporalFilter`.  The
references below are the code of those four implementations as it was,
copied verbatim, so any divergence on a time-sorted stream — ties, ``T = 0``,
per-key windows above and below the default, alias groups — fails here.
"""

from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categories import Alert
from repro.core.correlated_filter import alias_key
from repro.core.filtering import (
    DEFAULT_THRESHOLD,
    SpatioTemporalFilter,
    log_filter,
    sorted_by_time,
)
from repro.core.serial_filter import serial_filter

from ..conftest import make_alert

# -- the replaced filters, verbatim ------------------------------------------


def reference_log_filter(
    alerts: Iterable[Alert],
    threshold: float = DEFAULT_THRESHOLD,
) -> Iterator[Alert]:
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    last_seen: Dict[str, float] = {}
    get = last_seen.get
    last_time = 0.0
    for alert in alerts:
        t = alert.timestamp
        if t - last_time > threshold:
            last_seen.clear()
        last_time = t
        category = alert.category
        previous = get(category)
        last_seen[category] = t
        if previous is None or t - previous >= threshold:
            yield alert


def temporal_filter(
    alerts: Iterable[Alert],
    threshold: float = DEFAULT_THRESHOLD,
) -> Iterator[Alert]:
    last_seen: Dict[Tuple[str, str], float] = {}
    for alert in alerts:
        key = (alert.source, alert.category)
        last = last_seen.get(key)
        last_seen[key] = alert.timestamp
        if last is not None and alert.timestamp - last < threshold:
            continue
        yield alert


def spatial_filter(
    alerts: Iterable[Alert],
    threshold: float = DEFAULT_THRESHOLD,
) -> Iterator[Alert]:
    last_by_category: Dict[str, Tuple[float, str]] = {}
    for alert in alerts:
        previous = last_by_category.get(alert.category)
        last_by_category[alert.category] = (alert.timestamp, alert.source)
        if previous is not None:
            prev_time, prev_source = previous
            if (
                prev_source != alert.source
                and alert.timestamp - prev_time < threshold
            ):
                continue
        yield alert


class PerCategoryFilter:
    def __init__(
        self,
        thresholds: Optional[Mapping[str, float]] = None,
        default_threshold: float = DEFAULT_THRESHOLD,
    ):
        if default_threshold < 0:
            raise ValueError("default_threshold must be non-negative")
        self.thresholds = dict(thresholds or {})
        for category, value in self.thresholds.items():
            if value < 0:
                raise ValueError(
                    f"threshold for {category!r} must be non-negative, got {value}"
                )
        self.default_threshold = default_threshold
        self._last_seen: Dict[str, float] = {}

    def threshold_for(self, category: str) -> float:
        return self.thresholds.get(category, self.default_threshold)

    def offer(self, alert: Alert) -> bool:
        """Process one alert; ``True`` iff it survives."""
        t, category = alert.timestamp, alert.category
        last = self._last_seen.get(category)
        self._last_seen[category] = t
        if last is not None and t - last < self.threshold_for(category):
            return False
        return True

    def filter(self, alerts: Iterable[Alert]) -> Iterator[Alert]:
        """Lazily filter a time-sorted stream."""
        for alert in alerts:
            if self.offer(alert):
                yield alert


class CorrelationAwareFilter:
    def __init__(
        self,
        groups: Iterable[FrozenSet[str]] = (),
        threshold: float = DEFAULT_THRESHOLD,
    ):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self._alias: Dict[str, str] = {}
        for group in groups:
            canonical = min(group)
            for member in group:
                if member in self._alias and self._alias[member] != canonical:
                    raise ValueError(
                        f"category {member!r} appears in multiple groups"
                    )
                self._alias[member] = canonical
        self._last_seen: Dict[str, float] = {}

    def group_key(self, category: str) -> str:
        """The shared clock key for a category (itself when ungrouped)."""
        return self._alias.get(category, category)

    def offer(self, alert: Alert) -> bool:
        key = self.group_key(alert.category)
        last = self._last_seen.get(key)
        self._last_seen[key] = alert.timestamp
        if last is not None and alert.timestamp - last < self.threshold:
            return False
        return True

    def filter(self, alerts: Iterable[Alert]) -> Iterator[Alert]:
        """Lazily filter a time-sorted stream."""
        for alert in alerts:
            if self.offer(alert):
                yield alert


# -- strategies --------------------------------------------------------------

CATEGORIES = ["A", "B", "C", "D"]

#: Half-second ticks make ties common; the occasional long jump gives the
#: clear(X) step quiet gaps both shorter and longer than the windows.
gaps = st.one_of(
    st.integers(0, 4).map(lambda k: k * 0.5),
    st.floats(0, 12, allow_nan=False),
    st.floats(12, 400, allow_nan=False),
)


def _stream(items):
    t, alerts = 0.0, []
    for gap, category, source in items:
        t += gap
        alerts.append(make_alert(t, source=source, category=category))
    return sorted_by_time(alerts)


streams = st.lists(
    st.tuples(gaps, st.sampled_from(CATEGORIES), st.sampled_from(["n1", "n2", "n3"])),
    max_size=80,
).map(_stream)

thresholds = st.one_of(
    st.just(0.0),
    st.just(DEFAULT_THRESHOLD),
    st.floats(0, 8 * DEFAULT_THRESHOLD, allow_nan=False),
)

overrides = st.dictionaries(st.sampled_from(CATEGORIES), thresholds, max_size=4)


@st.composite
def alias_groups(draw):
    """A random partition of the categories; singletons are ungrouped."""
    labels = draw(st.lists(st.integers(0, 2), min_size=len(CATEGORIES),
                           max_size=len(CATEGORIES)))
    blocks: Dict[int, set] = {}
    for category, label in zip(CATEGORIES, labels):
        blocks.setdefault(label, set()).add(category)
    return [frozenset(block) for block in blocks.values() if len(block) > 1]


def ids(alerts):
    return [id(a) for a in alerts]


def clock(alerts, threshold, **kwargs):
    return list(filter(SpatioTemporalFilter(threshold, **kwargs).offer, alerts))


# -- the differential --------------------------------------------------------


@given(streams, thresholds)
@settings(max_examples=300)
def test_algorithm_31_is_the_category_clock(alerts, threshold):
    assert ids(log_filter(alerts, threshold)) == ids(
        reference_log_filter(alerts, threshold)
    )


@given(streams, thresholds)
@settings(max_examples=300)
def test_serial_baseline_is_two_clocks(alerts, threshold):
    reference = spatial_filter(temporal_filter(alerts, threshold), threshold)
    assert ids(serial_filter(alerts, threshold)) == ids(reference)


@given(streams, thresholds, overrides)
@settings(max_examples=300)
def test_per_category_thresholds(alerts, threshold, per_key):
    """The reference never clears its table; the clock clears on quiet
    gaps longer than every window — so agreement here is also the proof
    that clear(X) never changes the output under per-key windows."""
    reference = PerCategoryFilter(per_key, default_threshold=threshold)
    assert ids(clock(alerts, threshold, thresholds=per_key)) == ids(
        reference.filter(alerts)
    )


@given(streams, thresholds, alias_groups())
@settings(max_examples=300)
def test_correlation_aware_is_an_alias_key(alerts, threshold, groups):
    reference = CorrelationAwareFilter(groups, threshold)
    assert ids(clock(alerts, threshold, key=alias_key(groups))) == ids(
        reference.filter(alerts)
    )


@given(streams, thresholds, overrides, alias_groups())
@settings(max_examples=200)
def test_clear_never_changes_the_output(alerts, threshold, per_key, groups):
    """Key and windows combined, against the same clock with its table
    never cleared: an infinite window for a key no alert has means no
    quiet gap is longer than every window."""
    key = alias_key(groups)
    never = {**per_key, "never seen": float("inf")}
    assert ids(clock(alerts, threshold, key=key, thresholds=per_key)) == ids(
        clock(alerts, threshold, key=key, thresholds=never)
    )


def test_quiet_gap_shorter_than_an_override_keeps_the_table():
    stf = SpatioTemporalFilter(5.0, thresholds={"A": 40.0})
    assert stf.offer(make_alert(0.0, category="A"))
    assert stf.offer(make_alert(10.0, category="B"))  # gap 10 > 5, < 40
    assert not stf.offer(make_alert(20.0, category="A"))
    assert stf.offer(make_alert(100.0, category="C"))  # gap 80 > 40: cleared
    assert set(stf._last_seen) == {"C"}


def test_temporal_key_is_source_and_category():
    alerts = [make_alert(0.0, source="n1"), make_alert(1.0, source="n2"),
              make_alert(2.0, source="n1")]
    kept = clock(alerts, 5.0, key=attrgetter("source", "category"))
    assert [a.source for a in kept] == ["n1", "n2"]
