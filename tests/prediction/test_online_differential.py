"""Differential equivalence: streaming miner vs. per-alert reference loops.

The miner is the one co-occurrence kernel: the offline analyses of
``repro.analysis.correlation`` run on it too.  Its license is an
exactness contract (see the ``repro.streaming.miner`` module docstring):
fed an alert stream — in *any* batching — it must reproduce the
per-alert nearest-partner loop and burst loop below, which are the
offline kernels ``analysis/correlation.py`` ran before it delegated to
the miner, kept verbatim as the reference.  These property-based tests
generate adversarial streams over each of the five systems' real
rulesets (bursts, exact-tie lags, duplicate timestamps, window-straddling
gaps) and assert:

* ``miner.tag_correlation`` (and the offline ``tag_correlation`` built on
  it) equals the reference for every category pair present: counts,
  coincidences, and coincidence rate integer-exact; ``mean_lag`` within
  the lag-grid quantum (< 1e-6 s);
* ``miner.spatial`` (and the offline ``spatial_correlation``) equals the
  reference exactly (burst statistics are ratios of integers on both
  sides);
* two different batch partitions of one stream — including the
  all-size-1 partition — produce identical graph snapshots;
* the engine-facing :class:`~repro.streaming.stage.PredictionStage`
  emits the same warnings and graph when alerts arrive out of order
  within the reorder tolerance, across any ``observe_batch`` chunking.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.correlation import (
    SpatialCorrelation,
    TagCorrelation,
    spatial_correlation,
    tag_correlation,
)
from repro.core.tagging import RulesetHandle
from repro.streaming import PredictionStage
from repro.streaming import online
from repro.streaming.miner import StreamingCorrelationMiner
from repro.streaming.online import SlimAlert

SYSTEMS = ("bgl", "liberty", "redstorm", "spirit", "thunderbird")

#: Real category alphabets, capped so pair mining stays dense enough to
#: actually produce coincidences within small generated streams.
CATEGORIES = {
    system: [c.name for c in RulesetHandle(system).resolve()][:8]
    for system in SYSTEMS
}

SOURCES = ["n0", "n1", "n2", "n17"]

#: mean_lag tolerance: each lag is quantized to the 2**-20 s grid
#: (error <= 2**-21 per addend), so the means agree strictly below
#: 1e-6 s; integers and their ratios must match exactly.
LAG_TOL = 1e-6


class FakeAlert(NamedTuple):
    """The offline analyses read only these three attributes."""

    timestamp: float
    category: str
    source: str


# -- the reference: the per-alert offline kernels, verbatim ------------------


def reference_spatial_correlation(
    alerts: Iterable[FakeAlert],
    window: float = 60.0,
) -> Dict[str, SpatialCorrelation]:
    runs: Dict[str, List[List[FakeAlert]]] = {}
    last_time: Dict[str, float] = {}
    for alert in alerts:
        series = runs.setdefault(alert.category, [])
        if not series or alert.timestamp - last_time[alert.category] > window:
            series.append([])
        series[-1].append(alert)
        last_time[alert.category] = alert.timestamp

    out: Dict[str, SpatialCorrelation] = {}
    for category, bursts in runs.items():
        distinct = [len({a.source for a in burst}) for burst in bursts]
        multi = sum(1 for d in distinct if d > 1)
        out[category] = SpatialCorrelation(
            category=category,
            incidents=len(bursts),
            mean_distinct_sources=float(np.mean(distinct)),
            multi_source_fraction=multi / len(bursts),
        )
    return out


def reference_tag_correlation_from_times(
    category_a: str,
    category_b: str,
    times_a: Sequence[float],
    times_b: Sequence[float],
    window: float = 300.0,
) -> TagCorrelation:
    if not times_a or not times_b:
        return TagCorrelation(category_a, category_b, len(times_a),
                              len(times_b), 0, 0.0, 0.0)
    base, other = (times_a, times_b) if len(times_a) <= len(times_b) else (times_b, times_a)
    other_arr = np.asarray(other)
    lags: List[float] = []
    for t in base:
        idx = int(np.searchsorted(other_arr, t))
        best = None
        for j in (idx - 1, idx):
            if 0 <= j < other_arr.size:
                lag = float(other_arr[j] - t)
                if abs(lag) <= window and (best is None or abs(lag) < abs(best)):
                    best = lag
        if best is not None:
            lags.append(best)
    rarer = min(len(times_a), len(times_b))
    return TagCorrelation(
        category_a=category_a,
        category_b=category_b,
        count_a=len(times_a),
        count_b=len(times_b),
        coincidences=len(lags),
        coincidence_rate=len(lags) / rarer if rarer else 0.0,
        mean_lag=float(np.mean(lags)) if lags else 0.0,
    )


def reference_tag_correlation(alerts, category_a, category_b, window=300.0):
    times_a = [a.timestamp for a in alerts if a.category == category_a]
    times_b = [a.timestamp for a in alerts if a.category == category_b]
    return reference_tag_correlation_from_times(
        category_a, category_b, times_a, times_b, window
    )


def assert_same_pair(got, expect):
    assert got.count_a == expect.count_a
    assert got.count_b == expect.count_b
    assert got.coincidences == expect.coincidences
    assert got.coincidence_rate == expect.coincidence_rate
    assert abs(got.mean_lag - expect.mean_lag) < LAG_TOL


def assert_same_spatial(got, expect):
    assert set(got) == set(expect)
    for category, row in expect.items():
        # Both sides are ratios of the same integers: exact equality.
        assert got[category].incidents == row.incidents
        assert got[category].mean_distinct_sources == row.mean_distinct_sources
        assert got[category].multi_source_fraction == row.multi_source_fraction


@st.composite
def event_streams(draw, system, max_size=120, min_gap=0.0):
    """Time-ordered (t, category, source) streams for one system.

    Gaps straddle both miner windows (spatial 60 s via the raw draw,
    pair 300 s via the occasional 12x stretch) and include zero-gap
    duplicates plus fractional offsets that land off the lag grid.
    """
    n = draw(st.integers(min_value=0, max_value=max_size))
    gaps = draw(st.lists(
        st.floats(min_value=min_gap, max_value=70.0, allow_nan=False),
        min_size=n, max_size=n,
    ))
    stretch = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cats = draw(st.lists(
        st.sampled_from(CATEGORIES[system]), min_size=n, max_size=n,
    ))
    srcs = draw(st.lists(st.sampled_from(SOURCES), min_size=n, max_size=n))
    t = 1_000_000.0
    events = []
    for gap, far, cat, src in zip(gaps, stretch, cats, srcs):
        t += gap * 12.0 if far else gap
        events.append((t, cat, src))
    return events


@st.composite
def partitions(draw, n):
    """Split ``range(n)`` into contiguous batches (sizes >= 1)."""
    if n == 0:
        return []
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else [])
    bounds = [0] + list(cuts) + [n]
    return list(zip(bounds[:-1], bounds[1:]))


def columns(events):
    return ([e[0] for e in events], [e[1] for e in events],
            [e[2] for e in events])


def feed(events, batches, **miner_kwargs):
    miner = StreamingCorrelationMiner(**miner_kwargs)
    for lo, hi in batches:
        miner.extend_columns(*columns(events[lo:hi]))
        # Advance with the watermark a live run would have: the newest
        # ingested time.  Finalization lag never changes the flushed view.
        miner.advance(events[hi - 1][0])
    return miner


def graph_key(miner):
    graph = miner.graph(max_edges=10_000, max_source_edges=10_000)
    return (graph.edges, graph.source_edges, graph.spatial,
            graph.finalized_alerts)


class TestMinerVsOffline:
    """The streaming miner and the offline analyses against the
    reference loops, per system."""

    @pytest.mark.parametrize("system", SYSTEMS)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_tag_correlation_matches_offline(self, system, data):
        events = data.draw(event_streams(system), label="events")
        batches = data.draw(partitions(len(events)), label="batches")
        miner = feed(events, batches)
        alerts = [FakeAlert(*e) for e in events]
        present = sorted({e[1] for e in events})
        for i, cat_a in enumerate(present):
            for cat_b in present[i + 1:]:
                expect = reference_tag_correlation(alerts, cat_a, cat_b)
                assert_same_pair(miner.tag_correlation(cat_a, cat_b), expect)
                assert_same_pair(
                    tag_correlation(alerts, cat_a, cat_b, window=300.0), expect
                )

    @pytest.mark.parametrize("system", SYSTEMS)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_spatial_matches_offline(self, system, data):
        events = data.draw(event_streams(system), label="events")
        batches = data.draw(partitions(len(events)), label="batches")
        miner = feed(events, batches)
        alerts = [FakeAlert(*e) for e in events]
        expect = reference_spatial_correlation(alerts, window=60.0)
        assert_same_spatial(miner.spatial(), expect)
        assert_same_spatial(spatial_correlation(alerts, window=60.0), expect)

    @pytest.mark.parametrize("system", SYSTEMS)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_batching_never_changes_the_graph(self, system, data):
        """Any two partitions — including all-size-1 — agree snapshot-
        for-snapshot: rounded weights, edge order, spatial rows, counts."""
        events = data.draw(event_streams(system, max_size=80), label="events")
        part_a = data.draw(partitions(len(events)), label="partition_a")
        part_b = data.draw(partitions(len(events)), label="partition_b")
        singles = [(i, i + 1) for i in range(len(events))]
        reference = graph_key(feed(events, part_a))
        assert graph_key(feed(events, part_b)) == reference
        assert graph_key(feed(events, singles)) == reference

    @pytest.mark.parametrize("system", SYSTEMS)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_tiny_caps_stay_bounded_and_batch_invariant(self, system, data):
        """With caps far below the stream's edge count, pruning kicks in
        at fixed stream-time boundaries — table sizes stay bounded and
        the surviving graph is still partition-independent."""
        events = data.draw(event_streams(system, max_size=100), label="events")
        part_a = data.draw(partitions(len(events)), label="partition_a")
        part_b = data.draw(partitions(len(events)), label="partition_b")
        kwargs = dict(max_edges=4, max_source_edges=6, prune_interval=120.0)
        miner_a = feed(events, part_a, **kwargs)
        miner_b = feed(events, part_b, **kwargs)
        assert graph_key(miner_a) == graph_key(miner_b)
        assert miner_a.pruned_edges == miner_b.pruned_edges
        assert miner_a.pruned_source_edges == miner_b.pruned_source_edges


class TestMinerMechanics:
    """Direct unit coverage of ordering, flushing, and durability."""

    def test_out_of_order_extend_rejected(self):
        miner = StreamingCorrelationMiner()
        miner.extend_columns([10.0], ["A"], ["n0"])
        with pytest.raises(ValueError, match="time-ordered"):
            miner.extend_columns([9.0], ["A"], ["n0"])
        with pytest.raises(ValueError, match="time-ordered"):
            miner.extend_columns([11.0, 10.5], ["A", "B"], ["n0", "n1"])

    def test_flushed_view_leaves_live_miner_untouched(self):
        miner = StreamingCorrelationMiner()
        miner.extend_columns([0.0, 1.0], ["A", "B"], ["n0", "n1"])
        snap = miner.flushed()
        assert snap.finalized == 2
        assert miner.finalized == 0  # still pending on the live miner
        miner.extend_columns([2.0], ["A"], ["n2"])  # stream continues
        assert miner.flushed().finalized == 3

    def test_state_roundtrip_mid_stream(self):
        events = [(float(i) * 7.0, "AB"[i % 2], SOURCES[i % 3])
                  for i in range(200)]
        original = StreamingCorrelationMiner(prune_interval=100.0)
        original.extend_columns(*columns(events[:120]))
        original.advance(events[119][0])

        restored = StreamingCorrelationMiner(prune_interval=100.0)
        restored.load_state_dict(original.state_dict())
        for miner in (original, restored):
            miner.extend_columns(*columns(events[120:]))
            miner.advance(math.inf)
        assert graph_key(original) == graph_key(restored)
        assert original.tag_correlation("A", "B") == restored.tag_correlation("A", "B")

    def test_state_rejects_mismatched_params(self):
        state = StreamingCorrelationMiner(pair_window=300.0).state_dict()
        other = StreamingCorrelationMiner(pair_window=60.0)
        with pytest.raises(ValueError, match="configuration mismatch"):
            other.load_state_dict(state)


def run_stage(arrivals, chunking):
    """Feed ``arrivals`` through a PredictionStage in the given chunking
    (``observe_batch`` sizes; 1 is what the per-record path emits, and
    whatever the chunking leaves over goes in one pair at a time) and
    return its report."""
    stage = PredictionStage(reorder_tolerance=1.0)
    i = 0
    for size in chunking:
        chunk = arrivals[i:i + size]
        if not chunk:
            break
        stage.observe_batch((a, True) for a in chunk)
        i += size
    for alert in arrivals[i:]:
        stage.observe_batch([(alert, True)])
    stage.finish()
    return stage.report()


class TestStageReordering:
    """Out-of-order arrival within the tolerance is invisible."""

    @pytest.mark.parametrize("system", SYSTEMS)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_within_tolerance_shuffle_is_invisible(self, system, data):
        """Arrival order sorted by the jittered key ``t + u``, with
        ``u`` drawn from [0, tolerance), satisfies the filter contract
        (every arrival has ``t > max_seen - tolerance``) yet freely
        swaps neighbours closer than the tolerance.  The finalized
        stream — hence warnings and graph — must not notice, for any
        ``observe_batch`` chunking on either side."""
        events = data.draw(
            event_streams(system, max_size=90, min_gap=0.001), label="events",
        )
        alerts = [SlimAlert(t, cat, src, None) for t, cat, src in events]
        jitter = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
            min_size=len(alerts), max_size=len(alerts),
        ), label="jitter")
        shuffled = [a for _, a in sorted(
            zip((a.timestamp + u for a, u in zip(alerts, jitter)),
                alerts), key=lambda pair: pair[0],
        )]
        chunk_in = data.draw(st.lists(st.integers(1, 16), max_size=20),
                             label="chunk_in")
        chunk_shuf = data.draw(st.lists(st.integers(1, 16), max_size=20),
                               label="chunk_shuf")
        # A first refit early enough that generated streams cross at
        # least one refit boundary, so the ensemble path is exercised too.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(online, "FIRST_REFIT", 32)
            baseline = run_stage(alerts, chunk_in)
            shuffled_report = run_stage(shuffled, chunk_shuf)
        assert shuffled_report.warnings == baseline.warnings
        assert shuffled_report.refits == baseline.refits
        assert shuffled_report.observed == baseline.observed
        assert (shuffled_report.graph.edges, shuffled_report.graph.spatial,
                shuffled_report.graph.finalized_alerts) == (
            baseline.graph.edges, baseline.graph.spatial,
            baseline.graph.finalized_alerts)
