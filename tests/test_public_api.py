"""Public API surface and reproducibility guarantees.

A downstream adopter depends on two meta-properties beyond any single
feature: the documented names exist and resolve, and every experiment is
bit-for-bit reproducible from its seed.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.core",
        "repro.logmodel",
        "repro.analysis",
        "repro.simulation",
        "repro.prediction",
        "repro.logio",
        "repro.reporting",
        "repro.service",
        "repro.systems",
    ],
)
def test_all_exports_resolve(module_name):
    """Every name in __all__ is actually importable from the module."""
    module = importlib.import_module(module_name)
    assert module.__all__, module_name
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_top_level_subpackages():
    for name in repro.__all__:
        if name != "__version__":
            assert hasattr(repro, name)


def test_entry_points_do_not_import_streaming():
    """Predict-less runs never import :mod:`repro.streaming`: the API and
    CLI reach it, and the correlation analyses reach its miner, only
    through imports deferred to the call that needs them."""
    probe = (
        "import sys, repro.api, repro.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] == ['repro', 'streaming']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parent.parent)]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_readme_quickstart_names_exist():
    """The README's quickstart must not rot."""
    from repro import api

    assert callable(api.run)
    assert callable(api.run_system)
    assert callable(api.run_stream)
    assert callable(api.run_all)


class TestReproducibility:
    def test_pipeline_bitwise_deterministic(self):
        from repro import api as pipeline

        a = pipeline.run_system("redstorm", scale=1e-5, seed=11)
        b = pipeline.run_system("redstorm", scale=1e-5, seed=11)
        assert a.stats.raw_bytes == b.stats.raw_bytes
        assert a.stats.compressed_bytes == b.stats.compressed_bytes
        assert [
            (x.timestamp, x.source, x.category) for x in a.raw_alerts
        ] == [(x.timestamp, x.source, x.category) for x in b.raw_alerts]

    def test_seed_independence_of_systems(self):
        """Generating one system must not perturb another's stream: the
        per-system seed derivation is independent."""
        from repro.simulation.generator import generate_log

        solo = [r.timestamp for r in generate_log("liberty", scale=1e-5,
                                                  seed=5).records]
        list(generate_log("spirit", scale=1e-5, seed=5).records)
        again = [r.timestamp for r in generate_log("liberty", scale=1e-5,
                                                   seed=5).records]
        assert solo == again

    def test_scale_changes_volume_not_structure(self):
        """Scaling volumes must keep the incident skeleton: filtered
        counts are scale-invariant (the calibration's core promise)."""
        from repro import api as pipeline

        small = pipeline.run_system("liberty", scale=1e-5, seed=6)
        large = pipeline.run_system("liberty", scale=1e-4, seed=6)
        assert small.raw_alert_count <= large.raw_alert_count
        # Filtered counts within a few percent of each other.
        assert abs(
            small.filtered_alert_count - large.filtered_alert_count
        ) <= 0.1 * large.filtered_alert_count


def test_version_string():
    assert repro.__version__ == "1.0.0"
