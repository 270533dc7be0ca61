"""Checks on the benchmark itself (``python -m pytest bench -q``).

Not part of the tier-1 suite: these run the whole benchmark at smoke
size, twice, which takes a couple of minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Metrics that are counts of what the program did, not timings: the
#: same seed must give the same value on every run.
EXACT = (
    "core.tag_hit_frac", "core.filter_kept_frac", "disk_bytes_per_alert",
    "resilience.checkpoints_taken", "store.partitions",
)


def run_bench(*args, out):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True,
    )
    return proc, time.monotonic() - started


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    runs = []
    for index in range(2):
        out = tmp_path_factory.mktemp(f"smoke{index}")
        proc, seconds = run_bench("--smoke", out=out)
        assert proc.returncode == 0, proc.stderr
        results = json.loads((out / "results.json").read_text())
        runs.append((results, seconds, out))
    return runs


def test_smoke_is_quick_and_correct(smoke_runs):
    for results, seconds, _ in smoke_runs:
        assert seconds < 60
        for name, entry in results["workloads"].items():
            assert entry["failed"] == 0, name
            assert entry["repetitions"] >= 3


def test_every_benchmark_json_name_is_reported(smoke_runs):
    results, _, out = smoke_runs[0]
    assert [w["name"] for w in SPEC["workloads"]] == list(results["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names + list(results["workloads"]):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in results["workloads"].values():
        for metric in SPEC["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0
        for metric in SPEC["per_layer"]:
            assert metric["name"] in entry["per_layer"]
    spans = json.loads((out / "trace.json").read_text())
    assert {"name", "workload", "start_ns", "end_ns", "parent", "count"} \
        <= set(spans[0])
    meta = results["meta"]
    for key in ("nproc", "platform", "python", "seed", "size", "sizes",
                "workers", "repetitions", "git_sha"):
        assert key in meta


def test_counts_repeat_exactly(smoke_runs):
    (first, _, _), (second, _, _) = smoke_runs
    for name, entry in first["workloads"].items():
        other = second["workloads"][name]
        assert entry["digests"] == other["digests"]
        for metric in EXACT:
            assert entry["per_layer"][metric] == other["per_layer"][metric]


def test_corrupted_expected_digest_fails_the_run(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text())
    digests = expected["smoke"]["bgl_mem_bounded"]
    digests["raw"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    proc, _ = run_bench(
        "--smoke", "--workload", "bgl_mem_bounded", "--trace", "0",
        "--expected", str(corrupted), out=tmp_path / "out",
    )
    assert proc.returncode != 0
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"]  # failed_frac == 1.0
