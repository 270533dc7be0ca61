"""The stable ``repro.api`` surface.

Two guarantees: the facade names exist, work, and are re-exported at
the package root; and nothing under ``examples/`` or ``scripts/``
imports the removed ``repro.pipeline`` name or engine internals
directly — ``repro.api`` is their only import surface.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro import api

REPO = Path(__file__).resolve().parent.parent


class TestFacade:
    def test_all_exports_resolve(self):
        for name in api.__all__:
            assert hasattr(api, name), f"repro.api.{name} missing"

    def test_root_reexports(self):
        for name in ("run", "run_all", "tag_lines", "iter_alerts", "serve"):
            assert getattr(repro, name) is getattr(api, name)

    def test_run_generates_when_no_records(self):
        result = api.run("liberty", scale=2e-5, seed=7)
        assert result.stats.messages > 0

    def test_run_consumes_records_when_given(self):
        from repro.simulation.generator import generate_log

        generated = generate_log("liberty", scale=2e-5, seed=7)
        records = list(generated.records)
        via_run = api.run("liberty", records=iter(records))
        via_stream = api.run_stream(iter(records), "liberty")
        assert via_run.raw_alert_count == via_stream.raw_alert_count
        assert via_run.stats.raw_bytes == via_stream.stats.raw_bytes

    def test_iter_alerts_matches_pipeline_tagging(self):
        from repro.simulation.generator import generate_log

        records = list(generate_log("liberty", scale=2e-5, seed=7).records)
        alerts = list(api.iter_alerts(records, "liberty"))
        result = api.run_stream(iter(records), "liberty")
        assert [a.category for a in alerts] == \
            [a.category for a in result.raw_alerts]

    def test_tag_lines_round_trips_native_format(self, tmp_path):
        from repro.logio.writer import write_log
        from repro.simulation.generator import generate_log

        records = list(generate_log("liberty", scale=2e-5, seed=7).records)
        path = tmp_path / "liberty.log"
        write_log(iter(records), path, "liberty")
        alerts = api.tag_lines(path.read_text().splitlines(), "liberty")
        expected = list(api.iter_alerts(records, "liberty"))
        assert [a.category for a in alerts] == \
            [a.category for a in expected]

    def test_serve_rejects_config_plus_kwargs(self):
        from repro.service import ServiceConfig

        with pytest.raises(TypeError):
            api.serve(ServiceConfig(), tcp_port=1)


class TestImportBoundary:
    """examples/ and scripts/ must import only the stable surface."""

    FORBIDDEN = re.compile(
        r"^\s*(?:from\s+repro\.pipeline\s+import"
        r"|from\s+repro\s+import\s+pipeline\b"
        r"|from\s+repro\.engine\.drivers\s+import"
        r"|import\s+repro\.pipeline\b)",
        re.MULTILINE,
    )

    @pytest.mark.parametrize("directory", ["examples", "scripts"])
    def test_no_internal_imports(self, directory):
        offenders = []
        for path in sorted((REPO / directory).glob("*.py")):
            if self.FORBIDDEN.search(path.read_text(encoding="utf-8")):
                offenders.append(path.name)
        assert not offenders, (
            f"{directory}/ must import repro.api, not the removed "
            f"repro.pipeline or the driver internals: {offenders}"
        )

    @pytest.mark.parametrize("directory", ["examples", "scripts"])
    def test_pipeline_callers_use_api(self, directory):
        """Any file running the pipeline gets it from repro.api."""
        pattern = re.compile(r"\brun_(?:stream|system|all)\(")
        for path in sorted((REPO / directory).glob("*.py")):
            text = path.read_text(encoding="utf-8")
            if pattern.search(text) and "repro" in text:
                assert re.search(
                    r"from\s+repro(?:\.api)?\s+import\s+.*\bapi\b"
                    r"|from\s+repro\.api\s+import", text,
                ), f"{directory}/{path.name} runs the pipeline but does " \
                   f"not import repro.api"
