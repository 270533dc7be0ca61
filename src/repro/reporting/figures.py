"""Text renderers for the paper's Figures 1-6.

Each ``figureN`` function regenerates the corresponding figure's data
series from live pipeline results and renders it as monospace text:
sparklines for time series, block-bar histograms for distributions,
timeline scatter rows for correlated categories.  The *data* the renders
display is exactly what the benches assert shape properties on.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.correlation import tag_correlation_from_times
from ..analysis.distributions import compare_models, empirical_cdf
from ..analysis.interarrival import (
    LogHistogram,
    interarrival_times,
    log_histogram,
)
from ..analysis.phases import PhaseShift, detect_phase_shifts
from ..analysis.timeseries import (
    RateSeries,
    SourceDistribution,
)
from ..core.categories import Alert
from ..simulation.opcontext import ContextTimeline
from .format import bar, format_int, histogram_rows, sparkline


def _date(epoch: float) -> str:
    return time.strftime("%Y-%m-%d", time.gmtime(epoch))


def figure1(timeline: ContextTimeline, max_intervals: int = 20) -> str:
    """Figure 1: the operational-context state machine, as a timeline.

    The paper's figure is the state diagram; the reproduction renders the
    concrete state history that diagram generates, which is the data an
    alert disambiguator consumes.
    """
    lines = [
        "Figure 1. Operational context timeline",
        "=======================================",
        f"window: {_date(timeline.start)} .. {_date(timeline.end)}",
        f"production fraction: {timeline.production_fraction():.3f}",
        "",
    ]
    intervals = list(timeline.intervals())
    shown = intervals[:max_intervals]
    for t0, t1, state, cause in shown:
        hours = (t1 - t0) / 3600.0
        lines.append(
            f"  {_date(t0)}  {state.value:<22} {hours:9.1f} h  ({cause})"
        )
    if len(intervals) > len(shown):
        lines.append(f"  ... {len(intervals) - len(shown)} more intervals")
    return "\n".join(lines)


def figure2a(
    series: RateSeries,
    shifts: Optional[Sequence[PhaseShift]] = None,
) -> str:
    """Figure 2(a): messages bucketed by hour, with detected phase shifts."""
    if shifts is None:
        shifts = detect_phase_shifts(series)
    lines = [
        "Figure 2(a). Messages per hour",
        "==============================",
        sparkline(series.counts.tolist()),
        f"buckets: {len(series.counts)}  total: {format_int(int(series.counts.sum()))}"
        f"  mean rate: {series.mean_rate():.3f} msg/s",
    ]
    for shift in shifts:
        lines.append(
            f"  shift at {_date(shift.timestamp)}: "
            f"{shift.mean_before:.1f} -> {shift.mean_after:.1f} msgs/hour "
            f"(x{shift.magnitude:.2f})"
        )
    if not shifts:
        lines.append("  no phase shifts detected")
    return "\n".join(lines)


def figure2b(distribution: SourceDistribution, top: int = 15) -> str:
    """Figure 2(b): messages by source, sorted by decreasing quantity."""
    ranked = distribution.ranked()
    lines = [
        "Figure 2(b). Messages by source (rank order)",
        "============================================",
    ]
    peak = ranked[0][1] if ranked else 0
    for source, count in ranked[:top]:
        label = source if source and source.isprintable() else "<corrupted>"
        lines.append(
            f"  {label:<16} |{bar(count, peak, 36).ljust(36)}| {format_int(count)}"
        )
    if len(ranked) > top:
        lines.append(f"  ... {len(ranked) - top} more sources")
    lines.append(
        f"  sources: {len(ranked)}   top-1 concentration: "
        f"{distribution.concentration(1):.3f}   unattributed msgs: "
        f"{format_int(distribution.unattributed())}"
    )
    return "\n".join(lines)


def _scatter_row(
    times: Sequence[float], t0: float, t1: float, width: int = 72
) -> str:
    cells = [" "] * width
    span = max(t1 - t0, 1e-9)
    for t in times:
        idx = min(width - 1, max(0, int((t - t0) / span * width)))
        cells[idx] = "•"
    return "".join(cells)


def figure3(
    alerts: Sequence[Alert],
    category_a: str = "GM_PAR",
    category_b: str = "GM_LANAI",
    window: float = 300.0,
) -> str:
    """Figure 3: two correlated alert classes on a shared time axis.

    On an :class:`~repro.store.query.AlertQuery` (or a stored view) the
    bounds come from partition metadata and the two category series from
    single-partition column scans; otherwise one streaming pass extracts
    the two timestamp columns without materializing the alerts.
    """
    query = (
        alerts
        if callable(getattr(alerts, "category_timestamps", None))
        else getattr(alerts, "query", None)
    )
    if query is not None:
        bounds = query.time_bounds()
        if bounds is None:
            return "Figure 3. (no alerts)"
        t0, t1 = bounds
        times_a = [float(t) for t in query.category_timestamps(category_a)]
        times_b = [float(t) for t in query.category_timestamps(category_b)]
    else:
        times_a, times_b = [], []
        t0, t1 = math.inf, -math.inf
        for alert in alerts:
            ts = alert.timestamp
            t0 = ts if ts < t0 else t0
            t1 = ts if ts > t1 else t1
            if alert.category == category_a:
                times_a.append(ts)
            elif alert.category == category_b:
                times_b.append(ts)
        if t1 < t0:
            return "Figure 3. (no alerts)"
    corr = tag_correlation_from_times(
        category_a, category_b, times_a, times_b, window=window
    )
    label_width = max(len(category_a), len(category_b))
    lines = [
        f"Figure 3. {category_a} vs {category_b} over time",
        "=" * 48,
        f"  {category_a.rjust(label_width)} |{_scatter_row(times_a, t0, t1)}|",
        f"  {category_b.rjust(label_width)} |{_scatter_row(times_b, t0, t1)}|",
        f"  window {_date(t0)} .. {_date(t1)}",
        f"  counts: {len(times_a)} vs {len(times_b)}   coincidences(±{window:g}s): "
        f"{corr.coincidences}   rate: {corr.coincidence_rate:.2f}   "
        f"correlated: {corr.is_correlated}",
    ]
    return "\n".join(lines)


def figure4(
    filtered_alerts: Sequence[Alert],
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> str:
    """Figure 4: categorized filtered alerts over time, one row per tag.

    Single pass over ``filtered_alerts`` — a list, a generator, or a
    columnar store scan — keeping only the timestamp columns.  Row order
    is by descending count with ties broken by first appearance in the
    stream, identical between the in-memory and spilled paths.
    """
    by_category: Dict[str, List[float]] = {}
    lo_seen, hi_seen = math.inf, -math.inf
    for alert in filtered_alerts:
        ts = alert.timestamp
        by_category.setdefault(alert.category, []).append(ts)
        lo_seen = ts if ts < lo_seen else lo_seen
        hi_seen = ts if ts > hi_seen else hi_seen
    if not by_category:
        return "Figure 4. (no alerts)"
    lo = t0 if t0 is not None else lo_seen
    hi = t1 if t1 is not None else hi_seen
    order = sorted(by_category, key=lambda c: -len(by_category[c]))
    label_width = max(len(c) for c in order)
    lines = [
        "Figure 4. Filtered alerts by category over time",
        "===============================================",
    ]
    for category in order:
        times = by_category[category]
        lines.append(
            f"  {category.rjust(label_width)} "
            f"|{_scatter_row(times, lo, hi)}| {len(times)}"
        )
    lines.append(f"  window {_date(lo)} .. {_date(hi)}")
    return "\n".join(lines)


def figure5(ecc_alerts: Sequence[Alert]) -> str:
    """Figure 5: ECC interarrivals — empirical CDF and log-gap histogram.

    Renders both of the paper's views of the same data and reports the
    model comparison: ECC should look exponential-ish/lognormal-ish where
    other categories do not.
    """
    fast = getattr(ecc_alerts, "timestamps", None)
    if callable(fast):
        times = np.sort(np.asarray(fast(), dtype=float))
    else:
        times = np.sort(
            np.asarray([a.timestamp for a in ecc_alerts], dtype=float)
        )
    gaps = np.diff(times) if times.size >= 2 else np.empty(0)
    lines = [
        "Figure 5. ECC alert interarrival distribution",
        "=============================================",
    ]
    if gaps.size < 3:
        lines.append("  (too few ECC alerts for a distribution)")
        return "\n".join(lines)
    values, heights = empirical_cdf(gaps)
    quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    lines.append("  (a) empirical CDF (hours):")
    for q in quantiles:
        idx = min(len(values) - 1, int(q * len(values)))
        lines.append(f"      P(gap <= {values[idx] / 3600.0:10.2f} h) = {q:.2f}")
    hist = log_histogram(gaps, bins_per_decade=2)
    labels = [f"1e{edge:.1f}s" for edge in hist.bin_edges[:-1]]
    lines.append("  (b) histogram of log10(gap):")
    lines.extend("      " + row for row in histogram_rows(labels, hist.counts.tolist()))
    comparison = compare_models(gaps)
    for name, fit in comparison.fits.items():
        lines.append(
            f"  fit {name:<12} KS={fit.ks_statistic:.3f} p={fit.ks_pvalue:.3f}"
        )
    best = comparison.best_name if comparison.best_name else "none (all rejected)"
    lines.append(f"  best-fitting model: {best}")
    return "\n".join(lines)


def figure6(
    histograms: Dict[str, LogHistogram],
) -> str:
    """Figure 6: filtered interarrival log-histograms per system.

    The paper's shape claim: bimodal on BG/L (correlated alerts and
    residual redundancy), unimodal on Spirit.
    """
    lines = [
        "Figure 6. Filtered alert interarrival log-histograms",
        "====================================================",
    ]
    for system, hist in histograms.items():
        labels = [f"1e{edge:.1f}s" for edge in hist.bin_edges[:-1]]
        lines.append(f"  {system}: modes={hist.mode_count()} "
                     f"bimodal={hist.is_bimodal()}")
        lines.extend("    " + row for row in histogram_rows(labels, hist.counts.tolist()))
        lines.append("")
    return "\n".join(lines).rstrip()


def all_figures(results: Dict[str, object]) -> str:
    """Figures 3-6 from pipeline results alone (no record stream).

    Figures 1 and 2 need the raw message stream or the operational
    timeline, which neither a result nor an alert store retains; this
    renders every figure that replays from the alerts themselves, so it
    works identically on live results and on results loaded back from a
    spilled store directory (``repro report``).
    """
    sections: List[str] = []
    if "liberty" in results:
        sections.append(figure3(results["liberty"].raw_alerts))
        sections.append(figure4(results["liberty"].filtered_alerts))
    if "thunderbird" in results:
        ecc = results["thunderbird"].alerts.filtered().where("ECC")
        sections.append(figure5(ecc))
    hist_systems = [s for s in ("bgl", "spirit") if s in results]
    if hist_systems:
        sections.append(
            figure6(
                {
                    system: log_histogram(
                        interarrival_times(
                            results[system].alerts.filtered()
                        ),
                        bins_per_decade=2,
                    )
                    for system in hist_systems
                }
            )
        )
    return "\n\n".join(sections)
