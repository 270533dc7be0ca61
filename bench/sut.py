"""The system under test, one repetition per process.

``python bench/sut.py`` is a fork server (see :func:`zygote`): for each
job path it reads, a fresh child materialises the job's inputs, starts
the clock, drives the program through its public API exactly as a user
would (``read_log`` -> ``api.run_stream`` for the batch workloads, an
``IngestService`` for the service workload), stops the clock, and prints
one JSON object: clock readings on ``CLOCK_MONOTONIC`` (shared with the
parent, so spans can straddle the two processes), resource usage, and
the output digests the parent verifies.  A job marked ``staged_pass``
is the traced pass's layer-by-layer replay (``layers.run_staged``)
instead, which has to start from the same cold process.

Only what the program itself needs is imported here — the parent's
generators (numpy and the ``simulation`` package) must not inflate the
child's start-up time or resident set.  The digest helpers live here
too, so the reference computed in set-up and the result computed by the
child are hashed by the same code.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
import sys
import time
import traceback

#: Every syslog tenant parses with this one year (``ServiceConfig.year``
#: is one value for the whole service), so set-up cuts each tenant's
#: slice from a single calendar year.  Red Storm mixes year-less syslog
#: lines with fully dated RAS lines, so the year is the one its log is
#: really from.
SERVICE_YEAR = 2006

# -- digests ---------------------------------------------------------------


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(str(part).encode("utf-8", "replace"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def alert_stream_digest(alerts) -> str:
    """sha256 over the ordered ``(timestamp, source, category)`` stream."""
    return _sha(
        f"{alert.timestamp!r}|{alert.source}|{alert.category}"
        for alert in alerts
    )


def stats_digest(stats, corrupted: int) -> str:
    """sha256 over the Table 2 volume columns plus the corruption count."""
    return _sha((
        stats.messages, stats.raw_bytes, stats.compressed_bytes, corrupted,
    ))


def report_text(result) -> str:
    """What ``repro report`` prints for one system's result."""
    from repro.reporting import figures, tables

    results = {result.system: result}
    return tables.all_tables(results) + "\n\n" + figures.all_figures(results)


def result_digests(result, report: str) -> dict:
    """The verified outputs of one batch run.  ``raw`` and ``kept`` are
    the two ordered alert streams (together they fix every ``kept``
    verdict), ``report`` the rendered tables and figures."""
    digests = {
        "stats": stats_digest(result.stats, result.corrupted_messages),
        "raw": alert_stream_digest(result.raw_alerts),
        "kept": alert_stream_digest(result.filtered_alerts),
        "report": _sha((report,)),
    }
    if result.prediction is not None:
        digests["prediction"] = _sha(
            [result.prediction.warnings_emitted, result.prediction.observed]
            + [repr(warning) for warning in result.prediction.warnings]
        )
    return digests


def path_digests(path) -> dict:
    """The verified outputs of one service tenant (or of the per-record
    reference loop that stands in for it): volume statistics, the
    per-category ``[raw, kept]`` counts, and the dead-letter total."""
    return {
        "stats": stats_digest(path.stats_collector.finish(), path.corrupted),
        "categories": _sha(sorted(
            (name, raw, kept)
            for name, (raw, kept) in path.report.by_category.items()
        )),
        "dead_letters": path.dead_letters.quarantined,
    }


# -- the batch workloads ---------------------------------------------------


def keep_workers_apart() -> None:
    """Pin this thread to the first CPU it may use and every process the
    job forks to the others.  Left alone, the kernel often wakes a pool
    worker on the CPU of the parent that feeds it and leaves them there,
    sharing one core beside an idle one: the same sharded job then runs
    at 100k or at 160k records/s as the scheduler pleases, and the
    number says nothing about the program."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:1])
        os.register_at_fork(
            after_in_child=lambda: os.sched_setaffinity(0, cpus[1:])
        )


def run_options(job: dict) -> dict:
    """The ``run_stream`` keyword arguments of one batch job."""
    options = {}
    if job.get("max_buffer"):
        from repro.resilience.backpressure import BackpressureConfig

        options["backpressure"] = BackpressureConfig(
            max_buffer=job["max_buffer"]
        )
    if job.get("workers"):
        from repro.parallel import ParallelConfig

        options["parallel"] = ParallelConfig(
            workers=job["workers"], batch_size=job["batch_size"]
        )
    if job.get("durable"):
        options.update(
            store_dir=os.path.join(job["scratch"], "store"),
            state_dir=os.path.join(job["scratch"], "state"),
            predict=True,
        )
    return options


def run_batch(job: dict) -> dict:
    """One ``run_stream`` job: file or pre-parsed input, one driver."""
    from repro import api
    from repro.logio import read_log

    system = job["system"]
    options = run_options(job)
    records = None
    if "records" in job:
        # Pre-parsed input is materialised before the clock starts.
        with open(job["records"], "rb") as handle:
            records = pickle.load(handle)
    cpu0 = sum(os.times()[:4])
    out = {"t0_ns": time.monotonic_ns()}
    if records is None:
        records = read_log(job["path"], system, year=job["year"])
    result = api.run_stream(records, system, **options)
    report = None
    if job.get("durable"):
        # The durable workload ends with the report a later
        # ``repro report <store>`` renders from the store alone.
        from repro.store import load_result

        t_report = time.monotonic_ns()
        report = report_text(load_result(options["store_dir"]))
        out["report_s"] = (time.monotonic_ns() - t_report) / 1e9
    out["t1_ns"] = time.monotonic_ns()
    out["cpu_s"] = sum(os.times()[:4]) - cpu0
    if report is None:
        report = report_text(result)
    out["digests"] = result_digests(result, report)
    out["processed"] = result.stats.messages
    out["alerts"] = len(result.raw_alerts)
    if result.overload is not None:
        out["shed"] = result.overload.total_shed + result.overload.total_spilled
        out["queue_peak_frac"] = max(
            peak / result.overload.queue_capacities[name]
            for name, peak in result.overload.queue_peaks.items()
        )
    if result.shard_stats is not None:
        out["batches"] = result.shard_stats.batches
        out["batches_retried"] = result.shard_stats.batches_retried
    if result.checkpoints is not None:
        out["checkpoints_taken"] = result.checkpoints.taken
    if result.store is not None:
        out["store_bytes"] = sum(
            part.meta.bytes for part in result.store.partitions
        )
        out["store_partitions"] = len(result.store.partitions)
    return out


# -- the service workload --------------------------------------------------


async def _serve(job: dict) -> dict:
    import asyncio

    from repro.service import IngestService, ServiceConfig

    expected = job["lines"]
    config = ServiceConfig(year=SERVICE_YEAR, **job.get("config", {}))
    service = IngestService(config)
    await service.start()
    router = service.router
    out = {}
    cpu0 = sum(os.times()[:2])
    print(json.dumps({"tcp_port": service.tcp_port}), flush=True)

    # Tenant workers take a batch off their queue and finish it without
    # awaiting, so "every line seen and nothing queued" is exact whenever
    # this coroutine gets to look.  With ``watch_alerts`` (the paced
    # phase) it also stamps the moment each tenant's emitted-alert count
    # is seen to pass k, for every k.
    watch = job.get("watch_alerts", False)
    poll_s = job["poll_s"]
    seen_at: dict = {}
    deadline = time.monotonic() + job["timeout_s"]
    while router.lines_seen < expected or router.total_queued():
        if time.monotonic() > deadline:
            break
        if watch:
            now = time.monotonic_ns()
            for tenant_id, tenant in router.tenants.items():
                stamps = seen_at.setdefault(tenant_id, [])
                stamps.extend(
                    [now] * (tenant.counters.alerts_raw - len(stamps))
                )
        await asyncio.sleep(poll_s)
    out["t1_ns"] = time.monotonic_ns()
    out["cpu_s"] = sum(os.times()[:2]) - cpu0
    if watch:
        now = out["t1_ns"]
        for tenant_id, tenant in router.tenants.items():
            stamps = seen_at.setdefault(tenant_id, [])
            stamps.extend([now] * (tenant.counters.alerts_raw - len(stamps)))
        out["alert_seen_ns"] = seen_at
    await service.drain()
    report = service.final_report()
    out["lines_seen"] = router.lines_seen
    out["unroutable"] = report["_service"]["unroutable"]
    out["tenants"] = {}
    out["digests"] = {}
    for tenant_id, tenant in router.tenants.items():
        row = report[tenant_id]
        out["tenants"][tenant_id] = {
            key: row[key]
            for key in ("received", "processed", "shed", "refused",
                        "alerts_raw", "alerts_filtered", "queue_peak",
                        "conserves")
        }
        out["digests"][tenant_id] = dict(
            path_digests(tenant.path),
            alerts_raw=row["alerts_raw"],
            alerts_filtered=row["alerts_filtered"],
        )
    out["processed"] = sum(
        row["processed"] for row in out["tenants"].values()
    )
    return out


def run_serve(job: dict) -> dict:
    import asyncio

    return asyncio.run(_serve(job))


def run_job(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        job = json.load(handle)
    if job.get("workers"):
        keep_workers_apart()
    if "staged_pass" in job:
        import layers

        out = layers.run_staged(job)
    elif job["kind"] == "serve":
        out = run_serve(job)
    else:
        out = run_batch(job)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Linux reports KiB; the largest process of the tree is the figure.
    out["maxrss_kib"] = max(usage, children)
    print(json.dumps(out), flush=True)


def zygote() -> int:
    """Fork server.  Importing ``repro`` costs about a second (scipy),
    which a fresh interpreter per repetition would pay outside the clock
    every time; instead this process imports what ``from repro import
    api`` imports, once, and forks a fresh child per job path read from
    stdin.  Nothing has run in a child when its job starts — rulesets
    are uncompiled and lazily imported packages unimported, exactly as
    in a new process."""
    from repro import api  # noqa: F401  (the import is the point)

    print(json.dumps({"ready_ns": time.monotonic_ns()}), flush=True)
    for line in sys.stdin:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                run_job(line.strip())
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        if status:
            print(json.dumps({"error": f"child status {status}"}),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(zygote())
