"""Text renderers for the paper's Tables 1-6.

Each ``tableN`` function regenerates the corresponding table from live
pipeline results (Table 1 from static specs), printing the same rows and
columns the paper reports plus, where useful, the paper's reference
numbers for side-by-side comparison.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.categories import AlertType
from ..core.rules import get_ruleset
from ..core.rules.bgl import OTHER_NAMES as BGL_OTHER_NAMES
from ..logmodel.record import RasSeverity, SyslogSeverity
from ..engine.result import PipelineResult
from ..systems.specs import LOG_SPECS, SYSTEMS
from .format import format_float, format_int, format_pct, render_table

#: Presentation order used throughout the paper.
SYSTEM_ORDER = ("bgl", "thunderbird", "redstorm", "spirit", "liberty")


def table1() -> str:
    """Table 1: system characteristics at the time of collection."""
    rows = []
    for name in SYSTEM_ORDER:
        spec = SYSTEMS[name]
        rows.append(
            (
                spec.external_name,
                spec.owner,
                spec.vendor,
                format_int(spec.top500_rank),
                format_int(spec.processors),
                format_int(spec.memory_gb),
                spec.interconnect,
            )
        )
    return render_table(
        ("System", "Owner", "Vendor", "Top500 Rank", "Procs",
         "Memory (GB)", "Interconnect"),
        rows,
        title="Table 1. System characteristics",
        align_left=(0, 1, 2, 6),
    )


def table2(results: Dict[str, PipelineResult]) -> str:
    """Table 2: log characteristics, measured vs the paper's reference.

    Absolute counts scale with the generator's ``scale``; the reference
    columns let the reader check the *shape* (ordering, ratios).
    """
    rows = []
    for name in SYSTEM_ORDER:
        if name not in results:
            continue
        result = results[name]
        ref = LOG_SPECS[name]
        rows.append(
            (
                SYSTEMS[name].external_name,
                ref.start_date,
                format_float(result.stats.days, 0),
                format_int(result.stats.raw_bytes),
                format_int(result.stats.compressed_bytes),
                format_float(result.stats.rate_bytes_per_second, 3),
                format_int(result.message_count),
                format_int(result.raw_alert_count),
                format_int(result.observed_categories),
                format_int(ref.messages),
                format_int(ref.alerts),
            )
        )
    return render_table(
        ("System", "Start Date", "Days", "Bytes", "Gzip Bytes",
         "Rate (B/s)", "Messages", "Alerts", "Cats",
         "Paper Msgs", "Paper Alerts"),
        rows,
        title="Table 2. Log characteristics (measured at the run's scale)",
        align_left=(0, 1),
    )


_TYPE_ORDER = (AlertType.HARDWARE, AlertType.SOFTWARE, AlertType.INDETERMINATE)
_TYPE_LABEL = {
    AlertType.HARDWARE: "Hardware",
    AlertType.SOFTWARE: "Software",
    AlertType.INDETERMINATE: "Indeterminate",
}


def table3(results: Dict[str, PipelineResult]) -> str:
    """Table 3: alert type distribution, raw vs filtered, all systems."""
    raw: Dict[AlertType, int] = {t: 0 for t in _TYPE_ORDER}
    filtered: Dict[AlertType, int] = {t: 0 for t in _TYPE_ORDER}
    for result in results.values():
        # Aggregate pushdown: on a spilled run this reads partition
        # metadata; on an in-memory run it is one pass over the lists.
        for alert_type, (raw_count, kept_count) in \
                result.alert_type_counts().items():
            raw[alert_type] += raw_count
            filtered[alert_type] += kept_count
    raw_total = sum(raw.values()) or 1
    filtered_total = sum(filtered.values()) or 1
    rows = []
    for alert_type in _TYPE_ORDER:
        rows.append(
            (
                _TYPE_LABEL[alert_type],
                format_int(raw[alert_type]),
                format_pct(100.0 * raw[alert_type] / raw_total),
                format_int(filtered[alert_type]),
                format_pct(100.0 * filtered[alert_type] / filtered_total),
            )
        )
    return render_table(
        ("Type", "Raw Count", "Raw %", "Filtered Count", "Filtered %"),
        rows,
        title="Table 3. Alert type distribution before and after filtering",
    )


def table4(
    results: Dict[str, PipelineResult],
    max_example_chars: int = 50,
    aggregate_bgl_others: bool = True,
) -> str:
    """Table 4: per-category raw/filtered counts with example bodies.

    Matches the paper's presentation: categories per system in descending
    raw count, BG/L's 31 minor categories aggregated into one
    "31 Others" row (pass ``aggregate_bgl_others=False`` for the full
    listing).
    """
    rows: List[tuple] = []
    for name in SYSTEM_ORDER:
        if name not in results:
            continue
        result = results[name]
        ruleset = get_ruleset(name)
        counts = result.category_counts()
        rows.append(
            (
                f"{SYSTEMS[name].external_name}",
                "",
                format_int(result.raw_alert_count),
                format_int(result.filtered_alert_count),
                "",
            )
        )
        others_raw = others_filtered = 0
        category_rows = []
        for category in ruleset:
            raw_count, filtered_count = counts.get(category.name, (0, 0))
            if raw_count == 0:
                continue
            if (
                aggregate_bgl_others
                and name == "bgl"
                and category.name in BGL_OTHER_NAMES
            ):
                others_raw += raw_count
                others_filtered += filtered_count
                continue
            example = category.example
            if len(example) > max_example_chars:
                example = example[: max_example_chars - 3] + "..."
            category_rows.append(
                (
                    f"  {category.alert_type.value} / {category.name}",
                    "",
                    raw_count,
                    filtered_count,
                    example,
                )
            )
        category_rows.sort(key=lambda row: -row[2])
        if others_raw:
            category_rows.append(
                (
                    f"  I / {len(BGL_OTHER_NAMES)} Others",
                    "",
                    others_raw,
                    others_filtered,
                    "machine check interrupt",
                )
            )
        rows.extend(
            (label, blank, format_int(raw_c), format_int(filt_c), example)
            for label, blank, raw_c, filt_c, example in category_rows
        )
    return render_table(
        ("Alert Type/Cat.", "", "Raw", "Filtered", "Example Message Body"),
        rows,
        title="Table 4. Alert categories per system",
        align_left=(0, 4),
    )


def table5(result: PipelineResult) -> str:
    """Table 5: BG/L severity distribution among messages and alerts."""
    if result.system != "bgl":
        raise ValueError("Table 5 is defined for the BG/L result")
    order = [sev.name for sev in RasSeverity]
    rows = [
        (label, format_int(m), format_pct(pm), format_int(a), format_pct(pa))
        for label, m, pm, a, pa in result.severity_tab.rows(order)
    ]
    return render_table(
        ("Severity", "Messages", "Msg %", "Alerts", "Alert %"),
        rows,
        title="Table 5. BG/L severity distribution (messages vs expert alerts)",
    )


def table6(result: PipelineResult) -> str:
    """Table 6: Red Storm syslog severity distribution.

    Restricted to severity-bearing records (the syslog paths); the RAS TCP
    path "has no severity analog" and is excluded, as in the paper.
    """
    if result.system != "redstorm":
        raise ValueError("Table 6 is defined for the Red Storm result")
    order = [sev.name for sev in SyslogSeverity]
    rows = [
        (label, format_int(m), format_pct(pm), format_int(a), format_pct(pa))
        for label, m, pm, a, pa in result.severity_tab.rows(order)
    ]
    return render_table(
        ("Severity", "Messages", "Msg %", "Alerts", "Alert %"),
        rows,
        title="Table 6. Red Storm syslog severity distribution",
    )


def all_tables(results: Dict[str, PipelineResult]) -> str:
    """Every table the results cover, concatenated."""
    sections = [table1()]
    if results:
        sections.extend([table2(results), table3(results), table4(results)])
    if "bgl" in results:
        sections.append(table5(results["bgl"]))
    if "redstorm" in results:
        sections.append(table6(results["redstorm"]))
    return "\n\n".join(sections)
