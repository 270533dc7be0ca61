"""End-to-end pipeline tests across the five machines."""

import pytest

from repro import api as pipeline
from repro.core.filtering import log_filter, sorted_by_time
from repro.logio.reader import read_log
from repro.logio.writer import write_log
from repro.simulation.calibration import SCENARIOS
from repro.simulation.generator import generate_log

from ..conftest import SEED, SMALL_SCALE


@pytest.mark.parametrize(
    "fixture_name",
    ["bgl_result", "thunderbird_result", "redstorm_result",
     "spirit_result", "liberty_result"],
)
def test_pipeline_invariants(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    assert result.message_count > 0
    assert 0 < result.filtered_alert_count <= result.raw_alert_count
    assert result.raw_alert_count < result.message_count
    assert result.stats.raw_bytes > result.message_count * 20
    assert result.observed_categories >= 1


@pytest.mark.parametrize(
    "fixture_name,tolerance",
    [
        ("bgl_result", 0.10),
        ("thunderbird_result", 0.10),
        ("redstorm_result", 0.10),
        ("spirit_result", 0.10),
        ("liberty_result", 0.15),
    ],
)
def test_filtered_counts_track_paper_table4(fixture_name, tolerance, request):
    """The whole point of the calibration: running the real tagger + the
    real filter over the generated stream recovers the paper's filtered
    counts (within tolerance for incident collisions)."""
    result = request.getfixturevalue(fixture_name)
    expected = SCENARIOS[result.system].filtered_alert_total
    assert result.filtered_alert_count == pytest.approx(
        expected, rel=tolerance
    )


def test_filter_report_matches_filtered_alerts(liberty_result):
    report_total = sum(
        filtered for _, filtered in liberty_result.category_counts().values()
    )
    assert report_total == liberty_result.filtered_alert_count


def test_summary_renders(liberty_result):
    text = liberty_result.summary()
    assert "liberty" in text
    assert "alerts (filtered)" in text


def test_pipeline_deterministic():
    a = pipeline.run_system("liberty", scale=SMALL_SCALE, seed=123)
    b = pipeline.run_system("liberty", scale=SMALL_SCALE, seed=123)
    assert a.message_count == b.message_count
    assert [x.timestamp for x in a.filtered_alerts] == [
        x.timestamp for x in b.filtered_alerts
    ]


def test_disk_round_trip_preserves_pipeline_results(tmp_path):
    """Generate -> write native format -> read back -> pipeline: identical
    alert counts (modulo nothing: corruption survives rendering)."""
    generated = generate_log("liberty", scale=SMALL_SCALE, seed=SEED)
    records = list(generated.records)
    direct = pipeline.run_stream(iter(records), "liberty")

    path = tmp_path / "liberty.log"
    write_log(records, path, "liberty")
    year = int(generated.scenario.start_date.split("-")[0])
    replayed = pipeline.run_stream(
        read_log(path, "liberty", year=year), "liberty"
    )
    assert replayed.message_count == direct.message_count
    assert replayed.raw_alert_count == direct.raw_alert_count
    assert replayed.filtered_alert_count == direct.filtered_alert_count


def test_alerts_are_time_sorted_property(liberty_result):
    """The pipeline feeds the filter in stream order; verify the generated
    stream satisfied the algorithm's sortedness precondition."""
    times = [a.timestamp for a in liberty_result.raw_alerts]
    assert times == sorted(times)


def test_refiltering_already_filtered_is_stable(liberty_result):
    refiltered = list(log_filter(
        sorted_by_time(liberty_result.filtered_alerts)
    ))
    assert len(refiltered) == liberty_result.filtered_alert_count
