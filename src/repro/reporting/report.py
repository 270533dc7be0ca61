"""Full single-system analysis report.

Combines every analysis the library implements into one text document for
one machine — what an operations team would generate weekly: volume
statistics, category table, severity cross-tab, filtering effectiveness,
failure attribution, interarrival characterization, and traffic phases.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.interarrival import (
    interarrival_series,
    log_histogram,
    summary_statistics,
)
from ..core.attribution import attribution_summary, build_failure_reports
from ..core.correlated_filter import learn_correlated_groups
from ..core.filtering import sorted_by_time
from ..logmodel.record import RasSeverity, SyslogSeverity
from ..engine.result import PipelineResult
from .format import format_int, format_pct, render_table


def _severity_section(result: PipelineResult) -> Optional[str]:
    labels = (
        [s.name for s in RasSeverity]
        if result.system == "bgl"
        else [s.name for s in SyslogSeverity]
    )
    if not any(label in result.severity_tab.messages for label in labels):
        return None
    rows = [
        (label, format_int(m), format_pct(pm), format_int(a), format_pct(pa))
        for label, m, pm, a, pa in result.severity_tab.rows(labels)
        if m > 0
    ]
    return render_table(
        ("Severity", "Messages", "Msg %", "Alerts", "Alert %"),
        rows,
        title="Severity distribution",
    )


def _category_section(result: PipelineResult) -> str:
    rows = [
        (category, format_int(raw), format_int(filtered),
         format_pct(100.0 * (1 - filtered / raw) if raw else 0.0, 1))
        for category, (raw, filtered) in sorted(
            result.category_counts().items(), key=lambda kv: -kv[1][0]
        )
    ]
    return render_table(
        ("Category", "Raw", "Filtered", "Redundancy"),
        rows,
        title="Alert categories",
    )


def _attribution_section(result: PipelineResult) -> str:
    alerts = sorted_by_time(result.raw_alerts)
    groups = learn_correlated_groups(alerts, window=300.0)
    reports = build_failure_reports(alerts, window=120.0, groups=groups)
    stats = attribution_summary(reports)
    lines = [
        "Failure attribution",
        "===================",
        f"failure episodes:     {stats['reports']:,}",
        f"cascades:             {stats['cascades']:,} "
        f"({format_pct(100 * stats['cascade_fraction'], 1)})",
        f"shared-resource:      {stats['shared_resource']:,}",
        f"alerts per failure:   {stats['mean_alerts_per_failure']:.1f}",
    ]
    if groups:
        lines.append(
            "correlated tag groups: "
            + "; ".join(" <-> ".join(sorted(g)) for g in groups)
        )
    worst = sorted(reports, key=lambda r: -r.alert_count)[:5]
    if worst:
        lines.append("largest episodes:")
        lines.extend(f"  {report.headline()}" for report in worst)
    return "\n".join(lines)


def _interarrival_section(result: PipelineResult) -> str:
    lines = ["Interarrival characterization (filtered alerts)",
             "==============================================="]
    # One pass over the filtered alerts — whether they are a list or a
    # columnar store scan — yields both the pooled and per-category gaps.
    series = interarrival_series(result.filtered_alerts)
    pooled = series.gaps
    if pooled.size >= 2:
        hist = log_histogram(pooled, bins_per_decade=2)
        stats = summary_statistics(pooled)
        lines.append(
            f"pooled: n={stats['count']} median={stats['median']:.0f}s "
            f"cv={stats['cv']:.2f} modes={hist.mode_count()} "
            f"bimodal={hist.is_bimodal()}"
        )
    for category, gaps in sorted(series.by_category.items()):
        if gaps.size < 5:
            continue
        stats = summary_statistics(gaps)
        flavor = "independent-ish" if stats["cv"] < 1.5 else "correlated"
        lines.append(
            f"  {category:<12} n={stats['count']:<6} "
            f"median={stats['median']:>10.0f}s cv={stats['cv']:>6.2f}  "
            f"[{flavor}]"
        )
    return "\n".join(lines)


def system_report(result: PipelineResult) -> str:
    """The full report for one pipeline result."""
    sections: List[str] = [
        f"Analysis report: {result.system}",
        "#" * 40,
        result.summary(),
        _category_section(result),
    ]
    severity = _severity_section(result)
    if severity is not None:
        sections.append(severity)
    if result.raw_alerts:
        sections.append(_attribution_section(result))
        sections.append(_interarrival_section(result))
    return "\n\n".join(sections)
