"""Public API surface and reproducibility guarantees.

A downstream adopter depends on two meta-properties beyond any single
feature: the documented names exist and resolve, and every experiment is
bit-for-bit reproducible from its seed.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: Every package under ``repro``, found by walking it, so a new package
#: cannot be left out of the ``__all__`` check.
PACKAGES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]

#: Where the system lives: a name defined in ``src/repro`` that no file
#: here mentions (package ``__init__``s aside) is reached only by tests.
SYSTEM_DIRS = ("src", "scripts", "benchmarks", "bench", "examples", ".github")
SYSTEM_SUFFIXES = {".py", ".yml", ".yaml", ".toml", ".cfg"}

#: Names kept although only tests reach them, each with its reason.
REACHED_ONLY_BY_TESTS = {
    "PAPER_TOTAL_ALERTS": "the abstract's 178,081,459 alerts, which the "
                          "calibration and spec tests hold Table 4 to",
    "PAPER_TOTAL_CATEGORIES": "the abstract's 77 categories, which the "
                              "rule and spec tests hold the rulesets to",
}

WORD = re.compile(r"\w+")


def top_level_definitions(source):
    """``(name, first line, last line)`` of each top-level def, class and
    assignment in a module, decorators included."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        first = min([node.lineno] + [
            d.lineno for d in getattr(node, "decorator_list", ())
        ])
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, first, node.end_lineno


def names_reached_only_by_tests(root=ROOT):
    """Top-level names in ``src/repro`` that nothing in the system uses.

    A name is used when its word appears in a system file outside its own
    definition.  A definition found unused stops counting as a use of the
    names it mentions, and the scan repeats until nothing changes, so a
    helper only dead code calls is found too.
    """
    files = {
        path: path.read_text(encoding="utf-8").splitlines()
        for top in SYSTEM_DIRS if (root / top).is_dir()
        for path in sorted((root / top).rglob("*"))
        if path.suffix in SYSTEM_SUFFIXES and path.name != "__init__.py"
        and path.is_file()
    }
    package = root / "src" / "repro"
    uses = Counter()
    for lines in files.values():
        uses.update(WORD.findall("\n".join(lines)))
    live = {}  # (name, path) -> the words of its definition
    for path, lines in files.items():
        if path.suffix == ".py" and package in path.parents:
            for name, first, last in top_level_definitions("\n".join(lines)):
                if name not in REACHED_ONLY_BY_TESTS:
                    live[name, path] = WORD.findall(
                        "\n".join(lines[first - 1:last])
                    )
    dead = []
    while True:
        found = [
            key for key, words in live.items()
            if uses[key[0]] == words.count(key[0])
        ]
        if not found:
            return sorted(
                f"{path.relative_to(package)}::{name}" for name, path in dead
            )
        for key in found:
            uses.subtract(live.pop(key))
            dead.append(key)


def test_no_public_name_is_reached_only_by_tests():
    """The supported surface is :mod:`repro.api`, the CLI, the service and
    what ``scripts/``, ``benchmarks/`` and ``bench/`` import; code that only
    tests reach makes every module look load-bearing."""
    dead = names_reached_only_by_tests()
    assert not dead, (
        "reached only by tests; delete them (and the tests that test only "
        "them) or add them to REACHED_ONLY_BY_TESTS with a reason: "
        + ", ".join(dead)
    )
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for path in (ROOT / "src" / "repro").rglob("*.py")
    )
    for name in REACHED_ONLY_BY_TESTS:
        assert re.search(rf"^{name}\b", sources, re.M), name


@pytest.mark.parametrize("module_name", PACKAGES)
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
