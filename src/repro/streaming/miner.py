"""Windowed co-occurrence correlation miner with exponential decay.

The one co-occurrence kernel behind the offline analyses
(:func:`repro.analysis.correlation.tag_correlation`,
:func:`~repro.analysis.correlation.spatial_correlation` and
:func:`~repro.analysis.correlation.correlation_matrix`, which feed it a
complete alert list and flush it once) and the live prediction stage.
The miner maintains the statistics *incrementally* over the stream so a
correlation graph is available at any point of a run, survives
checkpoint/resume, and costs a bounded amount of memory regardless of
stream length:

* **Watermark-driven finalization.**  An alert at time ``t`` only
  participates in pair mining once the watermark passes
  ``t + pair_window`` — every partner it could pair with has then been
  seen, so the per-alert nearest-neighbour decision is final and equals
  the offline computation on the full stream.
* **Window eviction.**  Per-category time indexes only retain alerts
  that can still be the nearest partner of a pending alert
  (``>= oldest pending - pair_window``); everything older is dropped.
* **Decay + top-k retention.**  Each (category, category) and
  (category, source) edge carries an exponentially decayed weight
  (half-life ``decay_half_life``); when the edge tables exceed their
  caps the lightest edges are dropped at fixed stream-time boundaries
  so pruning is independent of how the stream was batched.

Exactness contract (pinned by ``tests/prediction/test_online_differential.py``
against the per-alert nearest-partner and burst loops the offline
analyses used to run):

* coincidence counts, per-category counts, and spatial burst statistics
  are integer-exact matches of those loops for any batching;
* per-edge lag sums are accumulated on a fixed ``2**-20`` second grid —
  each addend is an exact float, so the sum is order-independent and
  ``mean_lag`` agrees with the per-alert mean to < 1e-6 s;
* decayed weights use a closed form whose batch-to-batch variance is a
  few ulps; snapshots round them to ``WEIGHT_DIGITS`` decimals (and
  order edges by the rounded value) so exported graphs are stable.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.correlation import SpatialCorrelation, TagCorrelation

#: Pair lags are quantized to this grid before summing.  Each quantized
#: lag is an exact binary float and ``|lag| <= pair_window``, so sums
#: stay integer-valued in grid units (exact up to 2**53) and are
#: independent of addition order — the property the differential suite
#: relies on across batch partitions.
LAG_GRID = 2.0**-20
_INV_GRID = 2.0**20

#: Decimal digits kept when weights are exported (graph snapshots,
#: golden fixtures); coarse enough to absorb ulp-level batching variance
#: in the decayed accumulators even for large weights, so snapshot edge
#: ordering (sorted on the rounded weight) is batch-invariant too.
WEIGHT_DIGITS = 6


def _decay(weight: float, from_t: float, to_t: float, half_life: float) -> float:
    if weight == 0.0:
        return 0.0
    return weight * 2.0 ** (-(to_t - from_t) / half_life)


class _PairEdge:
    """Two-sided accumulator for one unordered (category, category) pair.

    ``lo``/``hi`` refer to the two category codes in sorted order; side
    0 accumulates coincidences found when finalizing an alert of the
    ``lo`` category against the ``hi`` index, side 1 the reverse.  At
    snapshot time the side whose category is rarer becomes the offline
    "base" side, matching ``tag_correlation``'s choice.
    """

    __slots__ = ("co", "lag_units", "weight", "weight_t")

    def __init__(self) -> None:
        self.co = [0, 0]
        self.lag_units = [0.0, 0.0]  # integer-valued floats, grid units
        self.weight = 0.0
        self.weight_t = 0.0

    def add(self, side: int, count: int, lag_units: float) -> None:
        self.co[side] += count
        self.lag_units[side] += lag_units

    def bump_weight(self, times: Sequence[float], half_life: float) -> None:
        # Scalar loop: groups are small, so python pow beats the numpy
        # call overhead; the common singleton-at-t_ref case adds exactly
        # 1.0 either way.
        t_ref = times[-1]
        if t_ref < self.weight_t:
            t_ref = self.weight_t
        add = 0.0
        for t in times:
            add += 2.0 ** ((t - t_ref) / half_life)
        self.weight = _decay(self.weight, self.weight_t, t_ref, half_life) + add
        self.weight_t = t_ref

    def state(self) -> Tuple[int, int, float, float, float, float]:
        return (
            self.co[0],
            self.co[1],
            self.lag_units[0],
            self.lag_units[1],
            self.weight,
            self.weight_t,
        )

    @classmethod
    def from_state(cls, state: Sequence[float]) -> "_PairEdge":
        edge = cls()
        edge.co = [int(state[0]), int(state[1])]
        edge.lag_units = [float(state[2]), float(state[3])]
        edge.weight = float(state[4])
        edge.weight_t = float(state[5])
        return edge


class _SourceEdge:
    __slots__ = ("count", "weight", "weight_t")

    def __init__(self) -> None:
        self.count = 0
        self.weight = 0.0
        self.weight_t = 0.0

    def bump(self, times: Sequence[float], half_life: float) -> None:
        self.count += len(times)
        t_ref = times[-1]
        if t_ref < self.weight_t:
            t_ref = self.weight_t
        add = 0.0
        for t in times:
            add += 2.0 ** ((t - t_ref) / half_life)
        self.weight = _decay(self.weight, self.weight_t, t_ref, half_life) + add
        self.weight_t = t_ref

    def state(self) -> Tuple[int, float, float]:
        return (self.count, self.weight, self.weight_t)

    @classmethod
    def from_state(cls, state: Sequence[float]) -> "_SourceEdge":
        edge = cls()
        edge.count = int(state[0])
        edge.weight = float(state[1])
        edge.weight_t = float(state[2])
        return edge


@dataclass(frozen=True)
class CorrelationEdge(TagCorrelation):
    """One (category, category) edge of the mined graph: the pair's
    :class:`TagCorrelation` plus its decayed weight."""

    weight: float


@dataclass(frozen=True)
class SourceEdge:
    """One (category, source) edge of the mined graph."""

    category: str
    source: str
    count: int
    weight: float


@dataclass(frozen=True)
class CorrelationGraph:
    """Point-in-time snapshot of the mined correlation structure."""

    edges: Tuple[CorrelationEdge, ...]
    source_edges: Tuple[SourceEdge, ...]
    spatial: Tuple[SpatialCorrelation, ...]
    finalized_alerts: int

    def edge(self, a: str, b: str) -> Optional[CorrelationEdge]:
        lo, hi = sorted((a, b))
        for e in self.edges:
            if e.category_a == lo and e.category_b == hi:
                return e
        return None

    def summary_lines(self, top: int = 5) -> List[str]:
        lines = [
            "edges=%d source_edges=%d spatial=%d finalized=%d"
            % (
                len(self.edges),
                len(self.source_edges),
                len(self.spatial),
                self.finalized_alerts,
            )
        ]
        for e in self.edges[:top]:
            lines.append(
                "  %s ~ %s co=%d rate=%.3f lag=%+.2fs w=%.3f"
                % (
                    e.category_a,
                    e.category_b,
                    e.coincidences,
                    e.coincidence_rate,
                    e.mean_lag,
                    e.weight,
                )
            )
        return lines


class StreamingCorrelationMiner:
    """Incremental tag/spatial correlation over an alert stream.

    Feed finalized-ordered alerts with :meth:`extend_columns` and
    advance the completeness frontier with :meth:`advance`; both are
    driven by :class:`~repro.streaming.stage.PredictionStage`, which
    only hands the miner alerts whose order can no longer change.
    """

    def __init__(
        self,
        pair_window: float = 300.0,
        spatial_window: float = 60.0,
        decay_half_life: float = 3600.0,
        max_edges: int = 512,
        max_source_edges: int = 4096,
        prune_interval: float = 600.0,
    ) -> None:
        if pair_window <= 0 or spatial_window <= 0:
            raise ValueError("correlation windows must be positive")
        if decay_half_life <= 0 or prune_interval <= 0:
            raise ValueError("decay half-life and prune interval must be positive")
        self.pair_window = float(pair_window)
        self.spatial_window = float(spatial_window)
        self.decay_half_life = float(decay_half_life)
        self.max_edges = int(max_edges)
        self.max_source_edges = int(max_source_edges)
        self.prune_interval = float(prune_interval)

        self._vocab: Dict[str, int] = {}
        self._cats: List[str] = []
        self._counts: List[int] = []
        # Per-category ascending times retained for nearest-partner
        # lookups; the paired ndarray cache is invalidated on append.
        self._recent: List[List[float]] = []
        self._recent_np: List[Optional[np.ndarray]] = []
        # [closed_bursts, distinct_source_sum, multi_source_bursts,
        #  last_time (or None), open_burst_sources]
        self._spatial: List[List[Any]] = []
        self._edges: Dict[Tuple[int, int], _PairEdge] = {}
        self._src_edges: Dict[Tuple[int, str], _SourceEdge] = {}
        # Finalization queue, columnar (times / category codes / sources
        # in ascending time order) with a consumed-prefix pointer:
        # parallel lists keep ingest at list.extend speed and let
        # finalization slice straight into numpy without per-event
        # tuple unpacking.
        self._qt: List[float] = []
        self._qc: List[int] = []
        self._qs: List[str] = []
        self._queue_start = 0
        self._next_prune: Optional[float] = None
        self.finalized = 0
        self.pruned_edges = 0
        self.pruned_source_edges = 0

    # -- ingestion ---------------------------------------------------

    def _code(self, category: str) -> int:
        code = self._vocab.get(category)
        if code is None:
            code = len(self._cats)
            self._vocab[category] = code
            self._cats.append(category)
            self._counts.append(0)
            self._recent.append([])
            self._recent_np.append(None)
            self._spatial.append([0, 0, 0, None, set()])
        return code

    def extend_columns(
        self,
        times: List[float],
        categories: List[str],
        sources: List[str],
    ) -> None:
        """Ingest events as three parallel columns in ascending time
        order.  Columns let the queue append, the order check, and the
        per-category index updates all run as bulk operations instead of
        a per-event python loop."""
        n = len(times)
        if n == 0:
            return
        if len(categories) != n or len(sources) != n:
            raise ValueError("miner columns must have equal lengths")
        qt = self._qt
        t_arr = np.asarray(times, dtype=np.float64)
        if len(qt) > self._queue_start and times[0] < qt[-1]:
            raise ValueError(
                "miner events must be time-ordered: %r after %r"
                % (times[0], qt[-1])
            )
        if n > 1:
            backwards = t_arr[1:] < t_arr[:-1]
            if backwards.any():
                bad = int(np.nonzero(backwards)[0][0])
                raise ValueError(
                    "miner events must be time-ordered: %r after %r"
                    % (times[bad + 1], times[bad])
                )
        vocab = self._vocab
        codes = [vocab.get(c) for c in categories]
        if None in codes:
            new_code = self._code
            for i, code in enumerate(codes):
                if code is None:
                    codes[i] = new_code(categories[i])
        qt.extend(times)
        self._qc.extend(codes)
        self._qs.extend(sources)
        recent = self._recent
        recent_np = self._recent_np
        if len(set(codes)) == 1:
            code = codes[0]
            recent[code].extend(times)
            recent_np[code] = None
        else:
            c_arr = np.asarray(codes, dtype=np.intp)
            order = np.argsort(c_arr, kind="stable")
            sorted_codes = c_arr[order]
            sorted_times = t_arr[order]
            bounds = np.nonzero(np.diff(sorted_codes))[0] + 1
            starts = [0] + bounds.tolist()
            stops = bounds.tolist() + [n]
            for s, e in zip(starts, stops):
                code = int(sorted_codes[s])
                recent[code].extend(sorted_times[s:e].tolist())
                recent_np[code] = None

    # -- finalization ------------------------------------------------

    def advance(self, watermark: float) -> int:
        """Finalize every ingested alert with ``t + pair_window < watermark``.

        Returns the number of alerts finalized by this call.
        """
        qt = self._qt
        start = self._queue_start
        cutoff = watermark - self.pair_window
        end = bisect_left(qt, cutoff, start)
        done = end - start
        if done > 0:
            self._finalize(
                qt[start:end], self._qc[start:end], self._qs[start:end]
            )
            self._queue_start = end
            if end > 4096 and end * 2 > len(qt):
                del qt[:end]
                del self._qc[:end]
                del self._qs[:end]
                self._queue_start = 0
        self._evict(watermark)
        return done

    def _evict(self, watermark: float) -> None:
        if self._queue_start < len(self._qt):
            oldest_pending = self._qt[self._queue_start]
        else:
            oldest_pending = watermark
        if not math.isfinite(oldest_pending):
            # Flush: nothing can pair any more; drop all indexes.
            for code, lst in enumerate(self._recent):
                if lst:
                    self._recent[code] = []
                    self._recent_np[code] = None
            return
        horizon = oldest_pending - self.pair_window
        for code, lst in enumerate(self._recent):
            k = bisect_left(lst, horizon)
            if k:
                del lst[:k]
                self._recent_np[code] = None

    def _finalize(
        self, times: List[float], codes: List[int], sources: List[str]
    ) -> None:
        n = len(times)
        t_arr = np.asarray(times, dtype=np.float64)
        c_arr = np.asarray(codes, dtype=np.intp)
        ncat = len(self._cats)
        if (
            len(self._edges) + (ncat * (ncat - 1)) // 2 <= self.max_edges
            and len(self._src_edges) + n <= self.max_source_edges
        ):
            # Worst case, this chunk cannot push either table past its
            # cap, so every prune boundary it crosses is an identity —
            # mine it as one slice (fewer, larger vectorized passes) and
            # replay only the boundary bookkeeping.  The _next_prune
            # anchor walk below repeats the crossing loop's arithmetic
            # step for step, so the values stay bit-identical to the
            # slow path no matter how the stream was batched.
            self._finalize_slice(0, n, times, codes, sources, t_arr, c_arr)
            interval = self.prune_interval
            if self._next_prune is None:
                self._next_prune = (
                    math.floor(times[0] / interval) + 1.0
                ) * interval
            lo = 0
            while True:
                boundary = self._next_prune
                lo = bisect_left(times, boundary, lo)
                if lo >= n:
                    return
                skip = math.floor((times[lo] - boundary) / interval)
                self._next_prune = boundary + (skip + 1.0) * interval
        lo = 0
        while lo < n:
            if self._next_prune is None:
                self._next_prune = (
                    math.floor(times[lo] / self.prune_interval) + 1.0
                ) * self.prune_interval
            if times[n - 1] < self._next_prune:
                hi = n
            else:
                hi = bisect_left(times, self._next_prune, lo)
            if hi > lo:
                self._finalize_slice(lo, hi, times, codes, sources, t_arr, c_arr)
                lo = hi
            if lo < n:
                # times[lo] crossed the boundary: prune there, then jump
                # past any empty boundaries in one step.  Pruning twice
                # with no data in between only shifts every weight by the
                # same decay factor (ranking unchanged), so one prune per
                # crossing run equals pruning at each boundary — which
                # keeps the result independent of how advance() calls
                # were batched.
                boundary = self._next_prune
                self._prune(boundary)
                skip = math.floor((times[lo] - boundary) / self.prune_interval)
                self._next_prune = boundary + (skip + 1.0) * self.prune_interval

    def _finalize_slice(
        self,
        lo: int,
        hi: int,
        times: List[float],
        codes: List[int],
        sources: List[str],
        t_arr: np.ndarray,
        c_arr: np.ndarray,
    ) -> None:
        self.finalized += hi - lo
        t_view = t_arr[lo:hi]
        c_view = c_arr[lo:hi]
        ncat = len(self._cats)
        for code, inc in enumerate(np.bincount(c_view, minlength=ncat)):
            if inc:
                self._counts[code] += int(inc)
        self._mine_pairs(t_view, c_view, ncat)
        self._update_spatial_and_sources(
            times[lo:hi], codes[lo:hi], sources[lo:hi], t_view, c_view
        )

    def _recent_array(self, code: int) -> np.ndarray:
        arr = self._recent_np[code]
        if arr is None:
            arr = np.asarray(self._recent[code], dtype=np.float64)
            self._recent_np[code] = arr
        return arr

    def _mine_pairs(self, t_arr: np.ndarray, codes: np.ndarray, ncat: int) -> None:
        """Nearest-partner search of the finalizing slice against every
        other category's retained index, vectorized per partner category."""
        window = self.pair_window
        half_life = self.decay_half_life
        for dcode in range(ncat):
            if not self._recent[dcode]:
                continue
            arr = self._recent_array(dcode)
            idx = np.searchsorted(arr, t_arr)
            left_ok = idx > 0
            right_ok = idx < arr.size
            left_lag = np.where(left_ok, arr[np.maximum(idx - 1, 0)] - t_arr, -np.inf)
            right_lag = np.where(
                right_ok, arr[np.minimum(idx, arr.size - 1)] - t_arr, np.inf
            )
            # left_lag <= 0 <= right_lag by construction; offline code
            # prefers the past partner on an exact |lag| tie (strict <).
            take_right = right_lag < -left_lag
            best = np.where(take_right, right_lag, left_lag)
            mask = (np.abs(best) <= window) & (codes != dcode)
            if not mask.any():
                continue
            mcodes = codes[mask]
            lag_units = np.rint(best[mask] * _INV_GRID)
            mtimes = t_arr[mask]
            order = np.argsort(mcodes, kind="stable")
            sorted_codes = mcodes[order]
            sorted_times = mtimes[order].tolist()
            sorted_units = lag_units[order].tolist()
            bounds = np.nonzero(np.diff(sorted_codes))[0] + 1
            starts = [0] + bounds.tolist()
            stops = bounds.tolist() + [sorted_codes.size]
            for s, e in zip(starts, stops):
                acode = int(sorted_codes[s])
                lo, hi = (acode, dcode) if acode < dcode else (dcode, acode)
                edge = self._edges.get((lo, hi))
                if edge is None:
                    edge = self._edges[(lo, hi)] = _PairEdge()
                side = 0 if acode == lo else 1
                # lag units are integer-valued floats: sum() is exact
                # and order-independent regardless of list vs ndarray.
                edge.add(side, int(e - s), float(sum(sorted_units[s:e])))
                edge.bump_weight(sorted_times[s:e], half_life)

    def _update_spatial_and_sources(
        self,
        times: List[float],
        codes: List[int],
        sources: List[str],
        t_arr: np.ndarray,
        c_view: np.ndarray,
    ) -> None:
        window = self.spatial_window
        half_life = self.decay_half_life
        by_src: Dict[Tuple[int, str], List[float]] = {}
        for code, source, t in zip(codes, sources, times):
            key = (code, source)
            lst = by_src.get(key)
            if lst is None:
                by_src[key] = [t]
            else:
                lst.append(t)
        src_edges = self._src_edges
        for key, src_times in by_src.items():
            edge = src_edges.get(key)
            if edge is None:
                edge = src_edges[key] = _SourceEdge()
            edge.bump(src_times, half_life)

        for code in np.unique(c_view):
            sel = np.nonzero(c_view == code)[0]
            seg_t = t_arr[sel]
            sel_list = sel.tolist()
            state = self._spatial[int(code)]
            if state[3] is not None and seg_t[0] - state[3] > window:
                self._close_burst(state)
            if seg_t.size > 1:
                breaks = (np.nonzero(np.diff(seg_t) > window)[0] + 1).tolist()
            else:
                breaks = []
            starts = [0] + breaks
            for i, s in enumerate(starts):
                e = starts[i + 1] if i + 1 < len(starts) else seg_t.size
                if i > 0:
                    self._close_burst(state)
                state[4].update(sources[j] for j in sel_list[s:e])
            state[3] = float(seg_t[-1])

    @staticmethod
    def _close_burst(state: List[Any]) -> None:
        sources = state[4]
        if not sources:
            return
        state[0] += 1
        distinct = len(sources)
        state[1] += distinct
        if distinct > 1:
            state[2] += 1
        state[4] = set()

    # -- bounded memory ----------------------------------------------

    def _prune(self, now: float) -> None:
        half_life = self.decay_half_life
        if len(self._edges) > self.max_edges:
            keep = max(1, (self.max_edges * 3) // 4)
            ranked = sorted(
                self._edges.items(),
                key=lambda kv: (-_decay(kv[1].weight, kv[1].weight_t, now, half_life), kv[0]),
            )
            dropped = ranked[keep:]
            self.pruned_edges += len(dropped)
            for key, _ in dropped:
                del self._edges[key]
        if len(self._src_edges) > self.max_source_edges:
            keep = max(1, (self.max_source_edges * 3) // 4)
            ranked = sorted(
                self._src_edges.items(),
                key=lambda kv: (-_decay(kv[1].weight, kv[1].weight_t, now, half_life), kv[0]),
            )
            dropped = ranked[keep:]
            self.pruned_source_edges += len(dropped)
            for key, _ in dropped:
                del self._src_edges[key]

    # -- snapshots ---------------------------------------------------

    def flushed(self) -> "StreamingCorrelationMiner":
        """A copy with every pending alert finalized (the live miner is
        untouched, so streaming can continue afterwards)."""
        clone = StreamingCorrelationMiner(*self.params)
        clone.load_state_dict(self.state_dict())
        clone.advance(math.inf)
        return clone

    def _flushed_or_self(self) -> "StreamingCorrelationMiner":
        if self._queue_start < len(self._qt):
            return self.flushed()
        return self

    def _base_side(
        self, edge: Optional[_PairEdge], code_a: int, code_b: int
    ) -> Tuple[int, float]:
        """``edge``'s coincidences and lag units counted from the rarer
        of its two categories (ties: ``code_a``), the side the
        nearest-partner statistic is defined on."""
        if edge is None:
            return 0, 0.0
        counts = self._counts
        base = code_a if counts[code_a] <= counts[code_b] else code_b
        side = 0 if base == min(code_a, code_b) else 1
        return edge.co[side], edge.lag_units[side]

    def tag_correlation(self, a: str, b: str) -> TagCorrelation:
        """The finalized correlation of categories ``a`` and ``b`` (all
        zeros when either never occurred), as
        :func:`repro.analysis.correlation.tag_correlation` reports it."""
        snap = self._flushed_or_self()
        code_a = snap._vocab.get(a)
        code_b = snap._vocab.get(b)
        count_a = 0 if code_a is None else snap._counts[code_a]
        count_b = 0 if code_b is None else snap._counts[code_b]
        co, lag_units = 0, 0.0
        if count_a and count_b:
            key = (min(code_a, code_b), max(code_a, code_b))
            co, lag_units = snap._base_side(snap._edges.get(key), code_a, code_b)
        return TagCorrelation(
            category_a=a,
            category_b=b,
            count_a=count_a,
            count_b=count_b,
            coincidences=co,
            coincidence_rate=co / min(count_a, count_b) if co else 0.0,
            mean_lag=(lag_units * LAG_GRID) / co if co else 0.0,
        )

    def spatial(self) -> Dict[str, SpatialCorrelation]:
        """The finalized per-category burst statistics, as
        :func:`repro.analysis.correlation.spatial_correlation` reports
        them."""
        snap = self._flushed_or_self()
        out: Dict[str, SpatialCorrelation] = {}
        for code, category in enumerate(snap._cats):
            closed, dsum, multi, last_t, open_sources = snap._spatial[code]
            bursts = closed + (1 if open_sources else 0)
            if bursts == 0:
                continue
            distinct_sum = dsum + len(open_sources)
            multi_total = multi + (1 if len(open_sources) > 1 else 0)
            out[category] = SpatialCorrelation(
                category=category,
                incidents=bursts,
                mean_distinct_sources=distinct_sum / bursts,
                multi_source_fraction=multi_total / bursts,
            )
        return out

    def graph(self, max_edges: int = 64, max_source_edges: int = 64) -> CorrelationGraph:
        """Snapshot the decayed graph (finalized view), strongest first."""
        snap = self._flushed_or_self()
        rows: List[CorrelationEdge] = []
        for (lo, hi), edge in snap._edges.items():
            co, lag_units = snap._base_side(edge, lo, hi)
            if co == 0:
                continue
            count_a = snap._counts[lo]
            count_b = snap._counts[hi]
            rows.append(
                CorrelationEdge(
                    category_a=snap._cats[lo],
                    category_b=snap._cats[hi],
                    count_a=count_a,
                    count_b=count_b,
                    coincidences=co,
                    coincidence_rate=co / min(count_a, count_b),
                    mean_lag=round((lag_units * LAG_GRID) / co, 9),
                    weight=round(edge.weight, WEIGHT_DIGITS),
                )
            )
        rows.sort(key=lambda e: (-e.weight, e.category_a, e.category_b))
        src_rows = [
            SourceEdge(
                category=snap._cats[code],
                source=source,
                count=edge.count,
                weight=round(edge.weight, WEIGHT_DIGITS),
            )
            for (code, source), edge in snap._src_edges.items()
        ]
        src_rows.sort(key=lambda e: (-e.weight, e.category, e.source))
        spatial = tuple(
            sorted(snap.spatial().values(), key=lambda s: s.category)
        )
        return CorrelationGraph(
            edges=tuple(rows[:max_edges]),
            source_edges=tuple(src_rows[:max_source_edges]),
            spatial=spatial,
            finalized_alerts=snap.finalized,
        )

    # -- durability --------------------------------------------------

    @property
    def params(self) -> Tuple[float, float, float, int, int, float]:
        """The constructor arguments, in signature order."""
        return (
            self.pair_window,
            self.spatial_window,
            self.decay_half_life,
            self.max_edges,
            self.max_source_edges,
            self.prune_interval,
        )

    def state_dict(self) -> Dict[str, Any]:
        return {
            "params": self.params,
            "cats": list(self._cats),
            "counts": list(self._counts),
            "recent": [list(lst) for lst in self._recent],
            "spatial": [
                [row[0], row[1], row[2], row[3], sorted(row[4])]
                for row in self._spatial
            ],
            "edges": {key: edge.state() for key, edge in self._edges.items()},
            "src_edges": {
                key: edge.state() for key, edge in self._src_edges.items()
            },
            "queue": [
                list(self._qt[self._queue_start :]),
                list(self._qc[self._queue_start :]),
                list(self._qs[self._queue_start :]),
            ],
            "next_prune": self._next_prune,
            "finalized": self.finalized,
            "pruned_edges": self.pruned_edges,
            "pruned_source_edges": self.pruned_source_edges,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        params = tuple(state["params"])
        if params != self.params:
            raise ValueError(
                "miner configuration mismatch: checkpoint %r vs current %r"
                % (params, self.params)
            )
        self._cats = list(state["cats"])
        self._vocab = {cat: code for code, cat in enumerate(self._cats)}
        self._counts = [int(c) for c in state["counts"]]
        self._recent = [list(lst) for lst in state["recent"]]
        self._recent_np = [None] * len(self._recent)
        self._spatial = [
            [int(row[0]), int(row[1]), int(row[2]), row[3], set(row[4])]
            for row in state["spatial"]
        ]
        self._edges = {
            tuple(key): _PairEdge.from_state(val)
            for key, val in state["edges"].items()
        }
        self._src_edges = {
            tuple(key): _SourceEdge.from_state(val)
            for key, val in state["src_edges"].items()
        }
        qt, qc, qs = state["queue"]
        self._qt = [float(t) for t in qt]
        self._qc = [int(c) for c in qc]
        self._qs = list(qs)
        self._queue_start = 0
        self._next_prune = state["next_prune"]
        self.finalized = int(state["finalized"])
        self.pruned_edges = int(state["pruned_edges"])
        self.pruned_source_edges = int(state["pruned_source_edges"])
