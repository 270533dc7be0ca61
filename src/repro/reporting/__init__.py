"""Text renderers regenerating the paper's tables and figures."""

from .format import (
    bar,
    format_float,
    format_int,
    format_pct,
    histogram_rows,
    render_table,
    sparkline,
)
from .tables import (
    SYSTEM_ORDER,
    all_tables,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from .report import system_report
from .figures import (
    all_figures,
    figure1,
    figure2a,
    figure2b,
    figure3,
    figure4,
    figure5,
    figure6,
)

__all__ = [
    "bar",
    "format_float",
    "format_int",
    "format_pct",
    "histogram_rows",
    "render_table",
    "sparkline",
    "SYSTEM_ORDER",
    "all_figures",
    "all_tables",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "figure1",
    "figure2a",
    "figure2b",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "system_report",
]
