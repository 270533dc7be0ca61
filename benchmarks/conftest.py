"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures from a
freshly generated log, measures the interesting computation with
pytest-benchmark, asserts the paper's *shape* claims, and writes the
rendered artifact to ``benchmarks/output/`` so a run leaves the full set
of regenerated tables/figures on disk.

Scales are chosen per system so each bench finishes in seconds while
keeping enough volume for the claims; override with the
``REPRO_BENCH_SCALE`` environment variable (a multiplier applied on top).
"""

from __future__ import annotations

import pytest

from repro import api

from _bench_utils import BENCH_SCALES, SEED, bench_scale


@pytest.fixture(scope="session")
def results():
    """Pipeline results for all five machines at bench scales."""
    return {
        system: api.run_system(system, scale=bench_scale(system), seed=SEED)
        for system in BENCH_SCALES
    }


@pytest.fixture(scope="session")
def proportional_results():
    """All five machines with *proportional* scaling (incidents scaled
    together with volumes, uniform 1e-3).

    The incident-faithful ``results`` fixture preserves Table 4's filtered
    counts; this one preserves Table 2/3/5/6's volume *percentages* and
    cross-system orderings, which are raw-count properties.
    """
    return {
        system: api.run_system(
            system, scale=1e-3, incident_scale=1e-3, seed=SEED,
        )
        for system in BENCH_SCALES
    }


@pytest.fixture(scope="session")
def bgl_result(results):
    return results["bgl"]


@pytest.fixture(scope="session")
def thunderbird_result(results):
    return results["thunderbird"]


@pytest.fixture(scope="session")
def redstorm_result(results):
    return results["redstorm"]


@pytest.fixture(scope="session")
def spirit_result(results):
    return results["spirit"]


@pytest.fixture(scope="session")
def liberty_result(results):
    return results["liberty"]


@pytest.fixture(scope="session")
def liberty_full_alerts():
    """Liberty with full-paper alert volumes and thin background — the
    alert-side case studies (PBS bug, Figures 3/4) at true multiplicity."""
    return api.run_system(
        "liberty", scale=1.0, background_scale=1e-4, seed=SEED,
    )


@pytest.fixture(scope="session")
def thunderbird_burst_alerts():
    """Thunderbird with realistic burst multiplicities (alerts only) for
    the spatial-correlation and interarrival figures."""
    return api.run_system(
        "thunderbird", scale=0.02, incident_scale=0.05,
        background_scale=0.0, seed=SEED,
    )
