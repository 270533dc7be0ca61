#!/usr/bin/env python
"""CI perf gate: replay the engine driver matrix against the committed
baseline and fail on a >20% records/s regression.

Re-runs the exact ``BENCH_engine.json`` workload — the 1M-record
synthetic Liberty stream through every engine driver — and compares each
driver's throughput to the committed baseline *after normalizing for
host speed*: CI runners differ from the machine that recorded the
baseline, so the serial driver's measured/baseline ratio is used as the
host factor, and every other driver must reach

    baseline_records_per_sec * host_factor * (1 - TOLERANCE)

That makes the gate sensitive to *relative* regressions (a driver
getting slower than the engine around it) while staying robust to
runner speed.  Two backstops still catch engine-wide rot: the serial
driver itself must reach an absolute floor (a generous fraction of
baseline — CI runners are not 3x slower than the recording host), and
every driver must stay output-equivalent to serial before its number
counts (a fast wrong pipeline is not a result).

Three ratchets keep the batch-first engine honest beyond simple
regression checks.  First, the *committed baseline itself* must record
serial throughput at least ``SERIAL_RATCHET``x the pre-batch-engine
seed (113,686.5 rec/s, measured on the same class of host that records
baselines — so the comparison is already host-normalized): nobody can
quietly re-baseline the compiled-ruleset fast path away.  Second, the
measured sharded/serial ratio must clear a floor keyed off the host's
cores: near-parity (the byte-buffer boundary is cheap) even on one
core, a real win once four or more cores are available.  Third, the
measured bounded/serial ratio must clear ``BOUNDED_MIN_RATIO``: with a
pausable source and roomy buffers nothing can be shed, and the pump
serves each run of its ticks as one kernel batch, so it may cost the
per-tick bookkeeping and a shed class per tagger hit — neither a queue
and a shed decision per record nor a second pass through the rules
engine.

Exit 1 on any violated floor or ratchet, any equivalence break, or a
baseline/matrix mismatch (a driver added to the engine but missing from
the committed baseline must be benchmarked, not silently skipped).

Usage::

    PYTHONPATH=src python scripts/perf_gate.py [--records N] [--tolerance F]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "scripts"))

import bench_report  # noqa: E402

BASELINE = REPO / "benchmarks" / "output" / "BENCH_engine.json"
PREDICTION_BASELINE = REPO / "benchmarks" / "output" / "BENCH_prediction.json"
STORE_BASELINE = REPO / "benchmarks" / "output" / "BENCH_store.json"

#: Allowed relative regression per driver after host normalization.
TOLERANCE = 0.20

#: Hard ceiling on the online prediction stage's throughput cost: the
#: serial-predict row must keep at least ``1 - PREDICT_OVERHEAD_MAX`` of
#: plain serial throughput (before tolerance).  The committed
#: ``BENCH_prediction.json`` overhead additionally ratchets the floor:
#: whichever of the two bounds is tighter wins, so the stage can only
#: get cheaper without a deliberate re-baseline.
PREDICT_OVERHEAD_MAX = 0.15

#: Hard ceiling on the columnar store's write-path cost: a serial run
#: with ``store_dir`` set must keep at least ``1 - STORE_OVERHEAD_MAX``
#: of plain serial throughput (before tolerance).  As with prediction,
#: the committed ``BENCH_store.json`` overhead ratchets the bound
#: tighter: whichever is stricter wins.
STORE_OVERHEAD_MAX = 0.15

#: The serial driver must reach this fraction of the baseline's absolute
#: records/s — loose enough for slower CI runners, tight enough that an
#: engine-wide collapse cannot hide inside the host factor.
SERIAL_ABSOLUTE_FLOOR = 0.35

#: Serial records/s of the last pre-batch-engine baseline (PR 6), and
#: the factor the committed baseline must stay above it.  Baselines are
#: recorded on the same class of host as the seed was, so the committed
#: numbers compare directly — no further normalization needed.
SEED_SERIAL_RPS = 113_686.5
SERIAL_RATCHET = 3.0

#: Measured sharded/serial ratio floors (before tolerance).  The
#: byte-buffer shard boundary must keep sharding near-free even where
#: it cannot win (single core), and actually win once enough cores
#: exist.  The gate's ``--tolerance`` applies to these too: on a
#: shared single-core runner the scheduler can interleave parent and
#: worker badly through no fault of the code.
SHARDED_MIN_RATIO = 0.8
SHARDED_MULTI_CORE_RATIO = 1.5
SHARDED_MULTI_CORE_AT = 4

#: Measured bounded/serial ratio floor (before tolerance) on the same
#: stream: with roomy buffers and a pausable source nothing is shed,
#: and the pump serves each run of its uneventful ticks as one kernel
#: batch, so what separates the two is the per-tick bookkeeping
#: (credits, samples) and the shed class of each tagger hit.  Before the
#: verdict rode the queue every record was matched twice and this read
#: 0.48x; with a queue, a shed decision and a kernel call per tick it
#: read 0.54-0.63x.
BOUNDED_MIN_RATIO = 0.7

#: Timing runs per driver; the best is scored.  Benchmark noise on a
#: busy runner is one-sided — the scheduler can only make a run look
#: slower than the code is — so best-of-N converges on the code's
#: actual speed instead of the runner's worst moment.
REPEATS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=None,
                        help="stream length (default: the baseline's)")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count (default: the baseline's)")
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help="timing runs per driver; best is scored "
                             f"(default: {REPEATS})")
    parser.add_argument("--require-cores", type=int, default=None,
                        help="skip (exit 0) with a notice unless the host "
                             "has at least this many cores; used by the CI "
                             "multi-core job so the >1.2x sharded floor is "
                             "only armed where it can be met")
    args = parser.parse_args(argv)

    if args.require_cores is not None:
        cores = os.cpu_count() or 1
        if cores < args.require_cores:
            print(
                f"SKIPPED: perf gate requires >= {args.require_cores} cores "
                f"but this host has {cores}; the multi-core sharded floor "
                "(ROADMAP item 1a) stays unarmed on this runner"
            )
            return 0

    baseline = json.loads(BASELINE.read_text())
    records_n = args.records or baseline["records"]
    workers = args.workers or baseline["workers"]
    by_driver = {row["driver"]: row for row in baseline["drivers"]}
    if "serial" not in by_driver:
        print("FAIL: baseline has no serial row to normalize against")
        return 1

    ratchet_floor = SEED_SERIAL_RPS * SERIAL_RATCHET
    if by_driver["serial"]["records_per_sec"] < ratchet_floor:
        print(
            f"FAIL: committed serial baseline "
            f"{by_driver['serial']['records_per_sec']:,.0f} rec/s is below "
            f"the ratchet floor {ratchet_floor:,.0f} "
            f"({SERIAL_RATCHET:.0f}x the PR 6 seed {SEED_SERIAL_RPS:,.1f}); "
            "the compiled-ruleset fast path must not be re-baselined away"
        )
        return 1

    print(f"perf gate: {records_n:,} records, workers={workers}, "
          f"tolerance {args.tolerance:.0%} "
          f"(baseline: {BASELINE.relative_to(REPO)})")
    records = bench_report.synthetic_stream(records_n)
    configs = bench_report.engine_driver_configs(workers)

    # The gate must cover exactly the benchmarked matrix: a new driver
    # config without a committed baseline row is itself a failure.
    missing = sorted(set(configs) - set(by_driver))
    if missing:
        print(f"FAIL: drivers missing from committed baseline: {missing} "
              "(run scripts/bench_report.py --engine and commit)")
        return 1

    def best_run(**run_kwargs):
        """Best-of-``--repeats`` timing (noise only ever slows a run)."""
        best = None
        for _ in range(max(1, args.repeats)):
            attempt = bench_report.timed_run(records, **run_kwargs)
            if best is None or attempt[1] < best[1]:
                best = attempt
        return best

    serial_result, serial_seconds = best_run(**configs.pop("serial"))
    serial_sig = bench_report.signature(serial_result)
    measured = {"serial": len(records) / serial_seconds}
    host_factor = measured["serial"] / by_driver["serial"]["records_per_sec"]
    print(f"  serial: {measured['serial']:>10,.0f} rec/s "
          f"(host factor {host_factor:.2f}x baseline)")

    failures = []
    absolute_floor = (
        by_driver["serial"]["records_per_sec"] * SERIAL_ABSOLUTE_FLOOR
    )
    if measured["serial"] < absolute_floor:
        failures.append(
            f"serial throughput {measured['serial']:,.0f} rec/s below the "
            f"absolute floor {absolute_floor:,.0f} "
            f"({SERIAL_ABSOLUTE_FLOOR:.0%} of baseline)"
        )

    for driver, run_kwargs in sorted(configs.items()):
        result, seconds = best_run(**run_kwargs)
        rate = len(records) / seconds
        measured[driver] = rate
        if bench_report.signature(result) != serial_sig:
            failures.append(f"{driver}: output diverged from serial")
            continue
        floor = (
            by_driver[driver]["records_per_sec"]
            * host_factor * (1.0 - args.tolerance)
        )
        verdict = "ok" if rate >= floor else "REGRESSION"
        print(f"  {driver:<16} {rate:>10,.0f} rec/s "
              f"(floor {floor:>10,.0f})  {verdict}")
        if rate < floor:
            failures.append(
                f"{driver}: {rate:,.0f} rec/s < normalized floor "
                f"{floor:,.0f} (baseline "
                f"{by_driver[driver]['records_per_sec']:,.0f} "
                f"x host {host_factor:.2f} x {1 - args.tolerance:.2f})"
            )

    if "sharded" in measured:
        ratio = measured["sharded"] / measured["serial"]
        cores = os.cpu_count() or 1
        target = (
            SHARDED_MULTI_CORE_RATIO if cores >= SHARDED_MULTI_CORE_AT
            else SHARDED_MIN_RATIO
        )
        ratio_floor = target * (1.0 - args.tolerance)
        verdict = "ok" if ratio >= ratio_floor else "REGRESSION"
        print(f"  sharded/serial ratio {ratio:.2f}x "
              f"(floor {ratio_floor:.2f}x on {cores} cores)  {verdict}")
        if ratio < ratio_floor:
            failures.append(
                f"sharded/serial ratio {ratio:.2f}x below the "
                f"{ratio_floor:.2f}x floor for a {cores}-core host "
                f"(target {target:.2f}x less tolerance): the shard "
                "boundary has gotten expensive relative to serial"
            )

    if "bounded" in measured:
        ratio = measured["bounded"] / measured["serial"]
        ratio_floor = BOUNDED_MIN_RATIO * (1.0 - args.tolerance)
        verdict = "ok" if ratio >= ratio_floor else "REGRESSION"
        print(f"  bounded/serial ratio {ratio:.2f}x "
              f"(floor {ratio_floor:.2f}x)  {verdict}")
        if ratio < ratio_floor:
            failures.append(
                f"bounded/serial ratio {ratio:.2f}x below the "
                f"{ratio_floor:.2f}x floor (target {BOUNDED_MIN_RATIO:.2f}x "
                "less tolerance): the bounded pump has gotten expensive "
                "relative to serial"
            )

    if "serial-predict" in measured:
        ratio = measured["serial-predict"] / measured["serial"]
        target = 1.0 - PREDICT_OVERHEAD_MAX
        if PREDICTION_BASELINE.exists():
            committed = json.loads(PREDICTION_BASELINE.read_text())
            committed_overhead = (
                committed.get("throughput", {}).get("overhead_frac")
            )
            if committed_overhead is None:
                failures.append(
                    "BENCH_prediction.json has no throughput.overhead_frac "
                    "(run scripts/bench_report.py --engine and commit): the "
                    "prediction cost ratchet is disarmed"
                )
            else:
                # The committed overhead ratchets the ceiling downward.
                target = max(target, 1.0 - max(committed_overhead, 0.0))
        else:
            failures.append(
                f"missing {PREDICTION_BASELINE.relative_to(REPO)} "
                "(run scripts/prediction_eval.py then bench_report.py "
                "--engine and commit)"
            )
        ratio_floor = target * (1.0 - args.tolerance)
        verdict = "ok" if ratio >= ratio_floor else "REGRESSION"
        print(f"  predict/serial ratio {ratio:.2f}x "
              f"(floor {ratio_floor:.2f}x)  {verdict}")
        if ratio < ratio_floor:
            failures.append(
                f"serial-predict keeps only {ratio:.0%} of serial "
                f"throughput, below the {ratio_floor:.0%} floor (ceiling "
                f"{1 - target:.0%} overhead less tolerance): the online "
                "prediction stage has gotten too expensive"
            )

    # -- columnar store write-path cost --------------------------------
    # A serial run with ``store_dir`` must stay near plain serial (the
    # sink packs pages and appends; it must not dominate).  Measured
    # here rather than in the driver matrix so the committed engine
    # baseline's rows stay untouched.
    with tempfile.TemporaryDirectory(prefix="perf-gate-store-") as tmp:
        best = None
        for attempt in range(max(1, args.repeats)):
            run = bench_report.timed_run(
                records, store_dir=os.path.join(tmp, f"s{attempt}")
            )
            if best is None or run[1] < best[1]:
                best = run
        store_result, store_seconds = best
        if bench_report.signature(store_result) != serial_sig:
            failures.append("store-backed run: output diverged from serial")
    ratio = (len(records) / store_seconds) / measured["serial"]
    target = 1.0 - STORE_OVERHEAD_MAX
    if STORE_BASELINE.exists():
        committed_store = json.loads(STORE_BASELINE.read_text())
        committed_overhead = (
            committed_store.get("write", {}).get("overhead_frac")
        )
        if committed_overhead is None:
            failures.append(
                "BENCH_store.json has no write.overhead_frac (run "
                "scripts/bench_report.py --store and commit): the store "
                "cost ratchet is disarmed"
            )
        else:
            target = max(target, 1.0 - max(committed_overhead, 0.0))
    else:
        failures.append(
            f"missing {STORE_BASELINE.relative_to(REPO)} "
            "(run scripts/bench_report.py --store and commit)"
        )
    ratio_floor = target * (1.0 - args.tolerance)
    verdict = "ok" if ratio >= ratio_floor else "REGRESSION"
    print(f"  store/serial ratio {ratio:.2f}x "
          f"(floor {ratio_floor:.2f}x)  {verdict}")
    if ratio < ratio_floor:
        failures.append(
            f"serial-with-store keeps only {ratio:.0%} of serial "
            f"throughput, below the {ratio_floor:.0%} floor (ceiling "
            f"{1 - target:.0%} overhead less tolerance): the columnar "
            "sink has gotten too expensive"
        )

    if failures:
        print(f"\nFAIL: {len(failures)} perf-gate violations")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: all drivers within tolerance of the committed baseline, "
          "outputs equivalent to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
