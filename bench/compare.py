"""Compare two ``results.json`` files, one row per workload x metric.

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two runs of the
same commit) and ``B`` the candidate.  For every end-to-end metric of
``BENCHMARK.json`` and every workload both files hold, the row gives both
values, the ratio B/A with its base, the metric's bound, and a verdict:

* ``regressed``  — B's value is worse than A's by more than the bound;
* ``unresolved`` — not regressed, but the spread of A's own repetitions
  (distance between their quartiles, as a share of the median; their
  whole range when there are fewer than four) is wider than the bound,
  so "unchanged" cannot be claimed either;
* ``ok``         — neither.

Exits 1 if any row regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    """Interquartile distance as a share of the median; the whole range
    below four samples, where quartiles mean nothing."""
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric, base, candidate) -> str:
    worse = (
        candidate["value"] / base["value"] - 1
        if metric["better"] == "lower"
        else 1 - candidate["value"] / base["value"]
    )
    if worse > metric["bound"]:
        return "regressed"
    if spread(base["values"]) > metric["bound"]:
        return "unresolved"
    return "ok"


def compare(base, candidate, spec):
    """Yield ``(workload, metric, a, b, ratio, bound, verdict)`` rows."""
    for workload, a_entry in base["workloads"].items():
        b_entry = candidate["workloads"].get(workload)
        if b_entry is None:
            continue
        for metric in spec["end_to_end"]:
            a = a_entry["end_to_end"].get(metric["name"])
            b = b_entry["end_to_end"].get(metric["name"])
            if a is None or b is None:
                continue
            yield (workload, metric["name"], a["value"], b["value"],
                   b["value"] / a["value"], metric["bound"],
                   verdict(metric, a, b))
        if b_entry["failed"]:
            # Wrong output is a regression whatever the timings say.
            yield (workload, "failed", a_entry["failed"], b_entry["failed"],
                   float("inf"), 0.0, "regressed")


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        base = json.load(handle)
    with open(argv[2], encoding="utf-8") as handle:
        candidate = json.load(handle)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    print(f"{'workload':<22} {'metric':<16} {'A':>14} {'B':>14} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    regressed = False
    for workload, name, a, b, ratio, bound, word in compare(
        base, candidate, spec
    ):
        regressed = regressed or word == "regressed"
        print(f"{workload:<22} {name:<16} {a:>14.4f} {b:>14.4f} "
              f"{ratio:>7.3f}x {bound:>6.2f}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
