"""Engine throughput report: the driver matrix and the columnar store.

Runs the full pipeline (tag + spatio-temporal filter + stats) over a
deterministic synthetic Liberty stream under every execution driver and
writes ``benchmarks/output/BENCH_engine.json`` — the workload the CI
perf gate replays — recording records/sec and speedup for each driver.
(End-to-end throughput per workload, sharded included, is ``bench/``'s
job: ``python3 bench/run.py``.)

Every run is also checked for output equivalence against the serial
baseline before its number is recorded: a fast wrong pipeline is not a
result.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/bench_report.py [--engine|--store] [--records N]

``--records`` defaults to 1,000,000; use a smaller value for a quick
smoke run.  ``--engine`` (the default) runs the engine driver matrix.
``--store`` benchmarks the columnar alert store instead: write overhead
vs. a plain serial run, bytes/alert on disk, and scan / aggregate
throughput from the spilled store
(``benchmarks/output/BENCH_store.json`` — the perf gate ratchets the
write overhead from it).  Every row embeds ``cpu_count`` — speedup
numbers are only meaningful relative to the cores the host actually
has, and the perf gate reads the per-row value to decide which ratios a
host can be held to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import api  # noqa: E402
from repro.core.tagging import RulesetHandle  # noqa: E402
from repro.engine.capabilities import CAPABILITY_TABLE  # noqa: E402
from repro.logmodel.record import LogRecord  # noqa: E402
from repro.parallel import ParallelConfig  # noqa: E402
from repro.resilience.backpressure import BackpressureConfig  # noqa: E402

ENGINE_OUTPUT = REPO / "benchmarks" / "output" / "BENCH_engine.json"
PREDICTION_OUTPUT = REPO / "benchmarks" / "output" / "BENCH_prediction.json"
STORE_OUTPUT = REPO / "benchmarks" / "output" / "BENCH_store.json"

SYSTEM = "liberty"
BATCH_SIZE = 2048

#: Alert density of the synthetic stream: one tagged record per ALERT_EVERY.
ALERT_EVERY = 11

#: Timing runs per engine-matrix row; the best is recorded.  Scheduler
#: noise on a shared host is one-sided — it only ever makes a run look
#: slower — so best-of-N converges on the code's speed, and the
#: committed baseline (which the perf gate ratchets against) is not an
#: artifact of one bad scheduling moment.
ENGINE_REPEATS = 2


def synthetic_stream(n: int):
    """Deterministic mixed Liberty stream: chaff with periodic alerts."""
    ruleset = RulesetHandle(SYSTEM).resolve()
    cats = [cat for cat in ruleset if cat.example]
    records = []
    for i in range(n):
        t = i * 0.05
        source = f"n{i % 29}"
        if i % ALERT_EVERY == 0:
            cat = cats[i % len(cats)]
            records.append(LogRecord(
                timestamp=t, source=source, facility=cat.facility,
                body=cat.example, system=SYSTEM,
            ))
        else:
            records.append(LogRecord(
                timestamp=t, source=source, facility="kernel",
                body="routine interconnect heartbeat ok", system=SYSTEM,
            ))
    return records


def timed_run(records, parallel=None, backpressure=None, predict=None,
              store_dir=None):
    t0 = time.perf_counter()
    result = api.run_stream(
        records, SYSTEM, parallel=parallel, backpressure=backpressure,
        predict=predict, store_dir=store_dir,
    )
    return result, time.perf_counter() - t0


def engine_driver_configs(workers: int):
    """One ``timed_run`` kwargs dict per engine driver row.  The bounded
    configs use throughput-sized ticks; buffers stay roomy and the source
    pausable, so output is exact (nothing shed) and the measured cost is
    the bounded pump itself.  The ``serial-predict`` row is the serial
    schedule with the online prediction stage observing the sink — its
    cost relative to plain serial is what the perf gate ratchets."""
    parallel = ParallelConfig(workers=workers, batch_size=BATCH_SIZE)
    bounded = BackpressureConfig(
        max_buffer=4 * BATCH_SIZE,
        arrival_batch=BATCH_SIZE, service_batch=BATCH_SIZE,
    )
    return {
        "serial": {},
        "sharded": {"parallel": parallel},
        "bounded": {"backpressure": bounded},
        "bounded-sharded": {"parallel": parallel, "backpressure": bounded},
        "serial-predict": {"predict": True},
    }


def signature(result):
    """The observable output a configuration must reproduce exactly."""
    return (
        result.raw_alerts,
        result.filtered_alerts,
        result.stats.messages,
        result.stats.raw_bytes,
        result.category_counts(),
    )


def store_benchmark(records, hardware) -> int:
    """Columnar-store benchmark: write overhead vs. plain serial, disk
    footprint, and read-side throughput of the spilled store.  The
    store-backed run must stay output-equivalent to the in-memory run
    before any number is recorded, and the replayed store must agree
    with the run that wrote it."""
    from repro.store import AlertQuery, ColumnarStore, load_result

    n = len(records)
    best_serial = best_store = None
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        for attempt in range(ENGINE_REPEATS):
            run = timed_run(records)
            if best_serial is None or run[1] < best_serial[1]:
                best_serial = run
            # A fresh directory per attempt: every timed write pays the
            # full begin(0) cost, never an incremental resume.
            run = timed_run(
                records, store_dir=os.path.join(tmp, f"s{attempt}")
            )
            if best_store is None or run[1] < best_store[1]:
                best_store = run
                store_root = os.path.join(tmp, f"s{attempt}")
        serial_result, serial_secs = best_serial
        store_result, store_secs = best_store
        if signature(store_result) != signature(serial_result):
            raise AssertionError("store-backed run diverged from serial")

        serial_rps = n / serial_secs
        store_rps = n / store_secs
        overhead = 1.0 - store_rps / serial_rps
        print(f"serial (memory) : {serial_rps:12,.0f} rec/s "
              f"({serial_secs:.2f}s)")
        print(f"serial + store  : {store_rps:12,.0f} rec/s "
              f"({store_secs:.2f}s)  write overhead {overhead:.1%}")

        store = ColumnarStore(store_root)
        alerts_n = store.count()
        disk_bytes = sum(part.meta.bytes for part in store.partitions)
        print(f"on disk         : {disk_bytes:,} bytes across "
              f"{len(store.partitions)} partitions "
              f"({disk_bytes / max(alerts_n, 1):,.1f} bytes/alert)")

        t0 = time.perf_counter()
        scanned = sum(1 for _ in AlertQuery(store))
        object_secs = time.perf_counter() - t0
        assert scanned == alerts_n
        t0 = time.perf_counter()
        ts = AlertQuery(store).timestamps()
        column_secs = time.perf_counter() - t0
        assert len(ts) == alerts_n
        t0 = time.perf_counter()
        counts = AlertQuery(store).count_by_category()
        aggregate_secs = time.perf_counter() - t0
        assert sum(raw for raw, _kept in counts.values()) == alerts_n
        replayed = load_result(store_root)
        if replayed.summary() != store_result.summary():
            raise AssertionError("replayed store summary diverged")
        print(f"object scan     : {alerts_n / object_secs:12,.0f} alerts/s")
        print(f"column scan     : {alerts_n / column_secs:12,.0f} rows/s")
        print(f"aggregate       : {aggregate_secs * 1e3:.2f} ms "
              "(count_by_category, manifest pushdown)")

    report = {
        "benchmark": "columnar_store",
        "system": SYSTEM,
        "records": n,
        "alerts": alerts_n,
        "alert_every": ALERT_EVERY,
        "hardware": hardware,
        "note": (
            "Write overhead is serial-with-store vs. plain serial on the "
            "same stream (best-of-N each); scans read the spilled store "
            "back.  The perf gate ratchets overhead_frac: the store can "
            "only get cheaper without a deliberate re-baseline."
        ),
        "write": {
            "serial_records_per_sec": round(serial_rps, 1),
            "store_records_per_sec": round(store_rps, 1),
            "overhead_frac": round(overhead, 4),
        },
        "disk": {
            "bytes": disk_bytes,
            "partitions": len(store.partitions),
            "bytes_per_alert": round(disk_bytes / max(alerts_n, 1), 2),
        },
        "read": {
            "object_scan_alerts_per_sec": round(alerts_n / object_secs, 1),
            "column_scan_rows_per_sec": round(alerts_n / column_secs, 1),
            "aggregate_ms": round(aggregate_secs * 1e3, 3),
        },
    }
    STORE_OUTPUT.parent.mkdir(exist_ok=True)
    STORE_OUTPUT.write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {STORE_OUTPUT.relative_to(REPO)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=1_000_000,
                        help="synthetic stream length (default: 1,000,000)")
    parser.add_argument("--engine", action="store_true",
                        help="run the engine driver matrix (the perf-gate "
                             "workload; the default)")
    parser.add_argument("--store", action="store_true",
                        help="run only the columnar-store benchmark "
                             "(write overhead, disk footprint, scans)")
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count()
    hardware = {
        "cpu_count": cpu_count,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }

    print(f"building {args.records:,}-record synthetic {SYSTEM} stream ...")
    records = synthetic_stream(args.records)

    if args.store:
        return store_benchmark(records, hardware)

    # -- engine driver matrix: serial vs each execution driver ------------
    # The matrix's own serial row (first in the config dict) is the
    # equivalence baseline and speedup denominator.
    engine_workers = min(4, cpu_count or 1)
    driver_runs = []
    engine_baseline = engine_serial_rps = None
    rps_by_driver = {}
    print(f"engine driver matrix ({engine_workers} workers where sharded):")
    for name, run_kwargs in engine_driver_configs(engine_workers).items():
        best = None
        for _ in range(ENGINE_REPEATS):
            attempt = timed_run(records, **run_kwargs)
            if best is None or attempt[1] < best[1]:
                best = attempt
        result, secs = best
        rps = args.records / secs
        rps_by_driver[name] = rps
        if engine_baseline is None:
            assert name == "serial", "serial must lead the driver matrix"
            engine_baseline = signature(result)
            engine_serial_rps = rps
        elif signature(result) != engine_baseline:
            raise AssertionError(f"driver {name!r} diverged from serial")
        caps = CAPABILITY_TABLE[name]
        driver_runs.append({
            "driver": name,
            "cpu_count": cpu_count,
            "workers": (
                engine_workers if run_kwargs.get("parallel") is not None
                else 1
            ),
            "seconds": round(secs, 3),
            "records_per_sec": round(rps, 1),
            "speedup_vs_serial": round(rps / engine_serial_rps, 3),
            "checkpoint_barrier": caps.checkpoint_barrier,
            "equivalence": caps.equivalence,
            "equivalent_to_serial": True,
        })
        print(f"{name:<16}: {rps:12,.0f} rec/s  ({secs:.2f}s)")

    # The online prediction stage's throughput cost, as a fraction of
    # plain serial — mirrored into BENCH_prediction.json (when present)
    # so the prediction bench carries the cost next to the quality
    # numbers it buys, and the perf gate can ratchet both from one file.
    predict_overhead = None
    if "serial-predict" in rps_by_driver:
        predict_overhead = round(
            1.0 - rps_by_driver["serial-predict"] / rps_by_driver["serial"],
            4,
        )
        print(f"prediction overhead vs serial: {predict_overhead:.1%}")
        if PREDICTION_OUTPUT.exists():
            pred_report = json.loads(PREDICTION_OUTPUT.read_text())
            pred_report["throughput"] = {
                "records": args.records,
                "serial_records_per_sec": round(rps_by_driver["serial"], 1),
                "serial_predict_records_per_sec": round(
                    rps_by_driver["serial-predict"], 1
                ),
                "overhead_frac": predict_overhead,
            }
            PREDICTION_OUTPUT.write_text(
                json.dumps(pred_report, indent=1) + "\n", encoding="utf-8"
            )
            print(f"updated {PREDICTION_OUTPUT.relative_to(REPO)} throughput")

    engine_report = {
        "benchmark": "engine_driver_matrix",
        "system": SYSTEM,
        "records": args.records,
        "alert_every": ALERT_EVERY,
        "workers": engine_workers,
        "batch_size": BATCH_SIZE,
        "hardware": hardware,
        "note": (
            "Every driver is equivalence-checked against the serial "
            "baseline before its number is recorded; the bounded rows "
            "measure the tick-pump overhead with buffers roomy enough "
            "that nothing is shed."
        ),
        "drivers": driver_runs,
    }
    ENGINE_OUTPUT.write_text(
        json.dumps(engine_report, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {ENGINE_OUTPUT.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
