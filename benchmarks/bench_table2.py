"""Bench T2: regenerate Table 2 (log characteristics).

The measured computation is the full single-pass pipeline — generation,
volume statistics, tagging, filtering — for one machine; the artifact is
the five-system table with the paper's reference columns, produced under
proportional scaling (volumes and incident counts shrunk together) so the
cross-system orderings and ratios are the paper's.

Shape claims checked: Spirit produces the largest log and the most alerts
despite being the second-smallest machine; Liberty logs hundreds of
millions of messages (scaled) but almost no alerts; every system shows
all of its Table 2 categories.
"""

from repro import api
from repro.reporting.tables import table2

from _bench_utils import SEED, bench_scale, write_artifact


def test_table2_pipeline_throughput(benchmark, proportional_results):
    result = benchmark.pedantic(
        lambda: api.run_system(
            "liberty", scale=bench_scale("liberty"), seed=SEED
        ),
        rounds=3,
        iterations=1,
    )
    assert result.message_count > 0

    text = table2(proportional_results)
    write_artifact("table2.txt", text)

    sizes = {
        name: r.stats.raw_bytes for name, r in proportional_results.items()
    }
    assert max(sizes, key=sizes.get) == "spirit"
    # BG/L's log is by far the smallest (Table 2: 1.2 GB vs 22-30 GB).
    assert min(sizes, key=sizes.get) == "bgl"

    alerts = {
        name: r.raw_alert_count for name, r in proportional_results.items()
    }
    assert max(alerts, key=alerts.get) == "spirit"
    assert min(alerts, key=alerts.get) == "liberty"

    # Alert-to-message ratios echo Table 2: Spirit's majority-alert log vs
    # Liberty's one-in-a-hundred-thousand.
    spirit = proportional_results["spirit"]
    liberty = proportional_results["liberty"]
    assert spirit.raw_alert_count / spirit.message_count > 0.3
    assert liberty.raw_alert_count / liberty.message_count < 0.01

    # Message volumes order as in Table 2: Spirit > Liberty > Red Storm >
    # Thunderbird >> BG/L (allow the two closest pairs to be approximate).
    messages = {
        name: r.message_count for name, r in proportional_results.items()
    }
    assert messages["spirit"] > messages["thunderbird"]
    assert messages["liberty"] > messages["thunderbird"]
    assert messages["bgl"] * 10 < messages["thunderbird"]


def test_table2_observed_categories(benchmark, results):
    """Table 2's categories column, from the incident-faithful run where
    every category has its full incident count."""
    expected = {"bgl": 41, "thunderbird": 10, "redstorm": 12,
                "spirit": 8, "liberty": 6}
    observed = benchmark(
        lambda: {n: r.observed_categories for n, r in results.items()}
    )
    assert observed == expected
