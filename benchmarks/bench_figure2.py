"""Bench F2: regenerate Figure 2 (Liberty traffic over time and by source).

Figure 2(a): hourly message counts with evolution shifts ("the first
major shift ... corresponded to an upgrade in the operating system").
Figure 2(b): per-source message counts, admin nodes chattiest, a cluster
of corrupted/unattributable sources at the bottom.
"""

from repro.analysis.phases import detect_phase_shifts
from repro.analysis.timeseries import hourly_message_counts, messages_by_source
from repro.reporting.figures import figure2a, figure2b

from _bench_utils import SEED, write_artifact

import pytest


@pytest.fixture(scope="module")
def liberty_records():
    from repro.simulation.generator import generate_log

    # Corruption bumped above the scenario default so the Figure 2(b)
    # corrupted-source cluster is statistically guaranteed at this scale.
    return list(
        generate_log(
            "liberty", scale=3e-4, seed=SEED, corruption=2e-3
        ).records
    )


def test_figure2a_hourly_series_and_shifts(benchmark, liberty_records):
    series = hourly_message_counts(liberty_records)
    shifts = benchmark(detect_phase_shifts, series)
    text = figure2a(series, shifts)
    write_artifact("figure2a.txt", text)

    # The calibrated rate profile steps 0.45 -> 1.60 at ~28% (the OS
    # upgrade) plus two later shifts; the detector must find the upgrade.
    assert shifts, "no phase shifts detected"
    span = series.end - series.start
    fractions = [(s.timestamp - series.start) / span for s in shifts]
    upgrades = [
        s for s, f in zip(shifts, fractions)
        if 0.2 < f < 0.4 and s.magnitude > 1.5
    ]
    assert upgrades, f"OS-upgrade shift not found (shifts at {fractions})"


def test_figure2b_source_ranking(benchmark, liberty_records):
    distribution = benchmark(messages_by_source, liberty_records)
    text = figure2b(distribution)
    write_artifact("figure2b.txt", text)

    ranked = distribution.ranked()
    # "The most prolific sources were administrative nodes": both admin
    # nodes in the top handful.
    top_names = [name for name, _ in ranked[:6]]
    assert "ladmin1" in top_names and "ladmin2" in top_names

    # Orders of magnitude between head and tail (Figure 2(b) is log-scale).
    attributed = [
        (name, count) for name, count in ranked
        if name and name.isprintable()
    ]
    assert attributed[0][1] > 50 * attributed[-1][1]

    # The corrupted-source cluster exists.
    assert distribution.unattributed() > 0
