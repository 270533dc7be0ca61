"""The from-outside tracer and the staged layer replay.

Nothing inside ``src/`` is instrumented.  The traced pass replays a
workload *staged*: each layer's public function is called over the whole
input in turn, with a span ``{name, workload, pass, start_ns, end_ns,
parent, count}`` around every call.  Spans stay in memory until the
benchmark writes them out.  ``parent`` names the span a stage is
logically part of (the stages run one after another, not nested in
time), and a layer's self time is its span minus its children.

A staged pass runs where an untraced repetition runs, in a fresh child
of the ``sut.py`` fork server (:func:`run_staged`), and begins with the
ledger: what the repetition does, in its order, one span per step, each
a child of ``replay``.  The first, ``engine.oneoff``, is the job itself
over its first few records: what a process pays once whatever the
input's size (the imports the run triggers, ruleset compilation).  The
steps after it are as cold as the repetition's — a first pass over the
data grows the heap and faults its pages in, which a later one does not
— so their sum should land on the wall-clock of the untraced repetition
that ran just before the pass (``engine.ledger_residual_frac``).  Only
then is each layer timed alone, warm: those spans are what a layer costs
per record once the process is going.
"""

from __future__ import annotations

import gc
import gzip
import os
import pickle
import re
import time
import zlib
from collections import deque
from contextlib import contextmanager
from itertools import islice

import sut
from workloads import BATCH

#: Records of the job that ``engine.oneoff`` runs: enough to reach every
#: import and compile every rule, too few to cost anything themselves.
ONEOFF_RECORDS = 256


class Tracer:
    """In-memory span recorder on ``CLOCK_MONOTONIC`` (one clock for the
    benchmark and the system-under-test processes, so the spans a child
    recorded fit in beside the parent's).

    The staged replay runs several passes and a stage's time is its best
    pass: on a shared host the noise is one-sided — a neighbour only
    ever makes a pass slower — so the minimum is the steadiest estimate
    of what the code costs."""

    def __init__(self, workload=None, pass_id=0):
        self.spans = []
        self.workload = workload
        self.pass_id = pass_id

    def add(self, name, start_ns, end_ns, parent=None, count=0):
        span = {"name": name, "workload": self.workload, "parent": parent,
                "pass": self.pass_id, "count": count,
                "start_ns": start_ns, "end_ns": end_ns}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name, parent=None, count=0):
        span = self.add(name, time.monotonic_ns(), None, parent, count)
        try:
            yield span
        finally:
            span["end_ns"] = time.monotonic_ns()

    def _per_pass(self, name, field) -> list:
        totals = {}
        for s in self.spans:
            if s["name"] == name and s["workload"] == self.workload:
                totals[s["pass"]] = totals.get(s["pass"], 0) + field(s)
        return list(totals.values())

    def seconds(self, name) -> float:
        """Duration of the current workload's spans called ``name``,
        summed within a pass; the best pass."""
        totals = self._per_pass(name, lambda s: s["end_ns"] - s["start_ns"])
        return min(totals) / 1e9 if totals else 0.0

    def count(self, name) -> int:
        totals = self._per_pass(name, lambda s: s["count"])
        return max(totals) if totals else 0


def replay_seconds(spans) -> float:
    """One pass's ledger: the stages directly under ``replay``."""
    return sum(
        s["end_ns"] - s["start_ns"] for s in spans if s["parent"] == "replay"
    ) / 1e9


_CALIB_PATTERN = re.compile(r"(error|fail(ed|ure)?|panic)\b.*node(\d+)")


def calibrate() -> float:
    """Seconds a fixed kernel takes on this host right now
    (``host.calib_ms``): a diagnostic that says how fast the host was
    around a workload, never used to rescale a result.

    The kernel has the program's instruction mix — string formatting and
    splitting, small tuples kept alive for a batch, one regex search,
    a zlib stream — and none of its code (a cache-resident arithmetic
    spin does not slow when neighbours do: they slow the program through
    the memory system).  The collector is off while it runs, so its time
    does not depend on the heap set-up left behind.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        compressor = zlib.compressobj(6)
        keep = []
        for i in range(60_000):
            line = (f"Jan {i % 28 + 1:2d} 12:{i % 60:02d}:{i * 7 % 60:02d} "
                    f"node{i % 512} kernel: event {i} status ok code "
                    f"{i * 2654435761 % 1000003}")
            parts = line.split(" ", 5)
            keep.append((float(i), parts[3], parts[4], parts[5]))
            _CALIB_PATTERN.search(parts[5])
            if i % 2048 == 2047:
                compressor.compress("\n".join(r[3] for r in keep).encode())
                keep = []
        compressor.flush()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def _batches(items):
    for start in range(0, len(items), BATCH):
        yield items[start:start + BATCH]


def _per(seconds: float, count: int, unit: float = 1e6) -> float:
    return seconds * unit / count if count else 0.0


# -- the stages (in a fresh child of the fork server) ----------------------


def ledger(tr, job, records):
    """What an untraced repetition of a batch job does, in its order and
    before anything else has run in this process, one span per step:
    ``engine.oneoff``, ``logio.read`` (file workloads), ``engine.run``
    and ``reporting.replay`` (the durable workload).  Returns the parsed
    records and the run's result."""
    from repro import api
    from repro.engine.drivers import SERIAL_BATCH_SIZE
    from repro.logio import read_log
    from repro.resilience.checkpoint import CheckpointManager

    system, durable = job["system"], job.get("durable")

    def source():
        return read_log(job["path"], system, year=job["year"])

    with tr.span("engine.oneoff", parent="replay", count=ONEOFF_RECORDS):
        if records is None:
            with source() as reader:
                head = list(islice(reader, ONEOFF_RECORDS))
        else:
            head = records[:ONEOFF_RECORDS]
        scratch = os.path.join(job["scratch"], "oneoff")
        os.mkdir(scratch)
        options = sut.run_options(dict(job, scratch=scratch))
        api.run_stream(head, system, **options)
        if durable:
            # Imported where the repetition imports them: on the clock.
            from repro.reporting import figures, tables
            from repro.store import load_result

            sut.report_text(load_result(options["store_dir"]))

    if records is None:
        # Consumed as the job's driver consumes it, so the collector
        # sees what it sees there: a checkpointed run takes one record
        # at a time, the plain serial one a batch.
        with tr.span("logio.read", parent="replay") as s:
            if durable:
                deque(source(), maxlen=0)
            else:
                reader = source()
                while list(islice(reader, SERIAL_BATCH_SIZE)):
                    pass
        records = list(source())
        s["count"] = len(records)

    class TimedCheckpoints(CheckpointManager):
        def maybe(self, consumed, snapshot):
            start = time.monotonic_ns()
            taken = super().maybe(consumed, snapshot)
            if taken:
                tr.add("resilience.checkpoint", start, time.monotonic_ns(),
                       parent="engine.run", count=1)
            return taken

    options = sut.run_options(job)
    if durable:
        options["checkpointer"] = TimedCheckpoints(
            every=api.DEFAULT_CHECKPOINT_EVERY
        )
    with tr.span("engine.run", parent="replay", count=len(records)):
        result = api.run_stream(records, system, **options)
    if durable:
        with tr.span("reporting.replay", parent="replay"):
            with tr.span("store.load_result", parent="reporting.replay"):
                replayed = load_result(options["store_dir"])
            results = {system: replayed}
            with tr.span("reporting.tables", parent="reporting.replay"):
                tables.all_tables(results)
            with tr.span("reporting.figures", parent="reporting.replay"):
                figures.all_figures(results)
    return records, result


def stage_reader(tr, job) -> None:
    """What ``logio.read`` is made of: decompress + decode, and parsing
    alone over pre-decoded lines."""
    from repro.logmodel.syslog import parse_syslog_stream

    path = job["path"]
    with tr.span("logio.gunzip_decode", parent="logio.read") as s:
        with gzip.open(path, "rt", encoding="utf-8", errors="replace") as fh:
            s["count"] = sum(1 for _ in fh)
    with gzip.open(path, "rt", encoding="utf-8", errors="replace") as fh:
        lines = list(fh)
    with tr.span("logmodel.parse", parent="logio.read", count=len(lines)):
        deque(
            parse_syslog_stream(iter(lines), job["year"],
                                system=job["system"]),
            maxlen=0,
        )


def stage_engine(tr, records, system) -> list:
    """The serial engine's stages over pre-parsed records, each over the
    whole input in turn; returns the ``(alert, kept)`` pairs."""
    from repro.analysis.severity_eval import SeverityCrossTab
    from repro.core.categories import Alert
    from repro.core.filtering import DEFAULT_THRESHOLD, SpatioTemporalFilter
    from repro.core.rules import get_ruleset
    from repro.core.tagging import Tagger
    from repro.logio import StatsCollector, renderer_for

    n = len(records)
    render = renderer_for(system)
    with tr.span("logio.render", parent="logio.stats", count=n):
        for record in records:
            render(record)
    with tr.span("logio.stats", parent="engine.serial", count=n):
        collector = StatsCollector(system)
        for batch in _batches(records):
            collector.observe_batch(batch)
        collector.finish()
    with tr.span("logio.stats_record", parent="extras", count=n):
        collector = StatsCollector(system)
        for record in records:
            collector.observe_record(record)
        collector.finish()

    tagger = Tagger(get_ruleset(system))
    texts = [
        [f"{r.facility}: {r.body}" if r.facility else r.body for r in batch]
        for batch in _batches(records)
    ]
    hits = []
    with tr.span("core.tag", parent="engine.serial", count=n):
        for chunk in texts:
            hits.append(tagger.match_texts(chunk))
    del texts
    with tr.span("analysis.severity", parent="engine.serial", count=n):
        tab = SeverityCrossTab()
        for batch, found in zip(_batches(records), hits):
            tab.add_batch(batch, [i for i, _ in found])
    pairs = []
    with tr.span("core.filter", parent="engine.serial") as s:
        offer = SpatioTemporalFilter(DEFAULT_THRESHOLD).offer
        for batch, found in zip(_batches(records), hits):
            for i, category in found:
                alert = Alert.from_record(batch[i], category)
                pairs.append((alert, offer(alert)))
        s["count"] = len(pairs)
    return pairs


def stage_durable(tr, pairs, job, result) -> dict:
    """The durable run's streaming and store layers alone, and scans of
    the store the run left behind."""
    from repro.core.filtering import FilterReport
    from repro.store import (
        AlertQuery, ColumnarSink, ColumnarStore, ColumnarStoreWriter,
    )
    from repro.streaming import PredictionStage

    options = sut.run_options(job)
    with tr.span("streaming.observe", parent="engine.run", count=len(pairs)):
        stage = PredictionStage()
        for chunk in _batches(pairs):
            stage.observe_batch(chunk)
        stage.finish()
    alone = os.path.join(job["scratch"], "store-alone")
    with tr.span("store.write", parent="engine.run", count=len(pairs)):
        writer = ColumnarStoreWriter(alone, job["system"])
        writer.begin(0)
        sink = ColumnarSink(FilterReport(threshold=result.threshold), writer)
        for chunk in _batches(pairs):
            sink.emit_batch(chunk)
        writer.commit()
        writer.finalize()

    store = ColumnarStore(options["store_dir"])
    alerts = store.count()
    with tr.span("store.object_scan", parent="extras", count=alerts):
        deque(AlertQuery(store), maxlen=0)
    with tr.span("store.column_scan", parent="extras", count=alerts):
        AlertQuery(store).timestamps()
    with tr.span("store.aggregate", parent="extras", count=1):
        AlertQuery(store).count_by_category()
    state_dir = options["state_dir"]
    return {
        "checkpoint_bytes": max(
            os.path.getsize(os.path.join(state_dir, name))
            for name in os.listdir(state_dir) if name.endswith(".ckpt")
        ),
        "warnings": result.prediction.warnings_emitted,
        "store_bytes": sum(part.meta.bytes for part in store.partitions),
        "store_partitions": len(store.partitions),
    }


def stage_service(tr, job) -> dict:
    """What a tenant worker does to each line, without the service
    around it: envelope + native parse, then the per-record path."""
    from repro.engine.path import AlertPath
    from repro.logio import StatsCollector
    from repro.resilience.deadletter import DeadLetterQueue
    from repro.service.router import parse_envelope, parse_native_line

    def parse(lines) -> dict:
        by_tenant = {}
        for line in lines:
            tenant, system, rest = parse_envelope(line)
            by_tenant.setdefault(tenant, []).append(
                parse_native_line(rest, system, sut.SERVICE_YEAR)
            )
        return by_tenant

    def process(by_tenant) -> None:
        for system, records in by_tenant.items():
            path = AlertPath(system, dead_letters=DeadLetterQueue())
            for record in records:
                if path.admit(record):
                    path.process(record)

    connections = []
    for payload in job["payloads"]:
        with open(payload["path"], encoding="utf-8") as handle:
            connections.append(handle.read().splitlines())
    with tr.span("engine.oneoff", parent="replay", count=ONEOFF_RECORDS):
        # Tenants alternate on a connection, so its first lines reach
        # every one of its dialects.
        for lines in connections:
            process(parse(lines[:ONEOFF_RECORDS]))
    wire = [line for lines in connections for line in lines]
    with tr.span("service.parse", parent="replay", count=len(wire)):
        by_tenant = parse(wire)
    with tr.span("service.process", parent="replay", count=len(wire)):
        process(by_tenant)
    with tr.span("logio.stats_record", parent="service.process",
                 count=len(wire)):
        for system, records in by_tenant.items():
            collector = StatsCollector(system)
            for record in records:
                collector.observe_record(record)
            collector.finish()
    return {"records": len(wire)}


def staged(tr, job) -> dict:
    """One staged pass: the ledger first, cold, then each layer alone,
    warm.  Returns the exact counts the layer metrics need beside the
    spans."""
    from repro import api

    if job["kind"] == "serve":
        return stage_service(tr, job)
    system = job["system"]
    records = None
    if "records" in job:
        with open(job["records"], "rb") as handle:
            records = pickle.load(handle)
    records, result = ledger(tr, job, records)

    if "path" in job:
        stage_reader(tr, job)
    # The same stream through the plain serial driver, warm, and the
    # job's own driver again, as warm: the two ratios compare like with
    # like.
    n = len(records)
    with tr.span("engine.serial", parent="extras", count=n):
        api.run_stream(records, system)
    options = sut.run_options(job)
    if "backpressure" in options:
        with tr.span("engine.bounded", parent="extras", count=n):
            api.run_stream(records, system, **options)
    if "parallel" in options:
        from repro.parallel.sharded import ShardedTagger

        with tr.span("parallel.sharded", parent="extras", count=n):
            api.run_stream(records, system, **options)
        with tr.span("parallel.tag_batches", parent="extras", count=n):
            with ShardedTagger(system, options["parallel"]) as tagger:
                deque(tagger.tag_batches(_batches(records)), maxlen=0)
    pairs = stage_engine(tr, records, system)
    facts = {
        "records": n,
        "corrupted": sum(1 for r in records if r.corrupted),
        "alerts": len(pairs),
        "kept": sum(1 for _, kept in pairs if kept),
    }
    if result.overload is not None:
        overload = result.overload
        facts["shed"] = overload.total_shed + overload.total_spilled
        facts["queue_peak_frac"] = max(
            peak / overload.queue_capacities[name]
            for name, peak in overload.queue_peaks.items()
        )
    if result.shard_stats is not None:
        facts["batches"] = result.shard_stats.batches
        facts["batches_retried"] = result.shard_stats.batches_retried
    if job.get("durable"):
        facts.update(stage_durable(tr, pairs, job, result))
    return facts


def run_staged(job: dict) -> dict:
    """One staged pass, as ``sut.py`` runs it in a fresh child."""
    tr = Tracer(job["workload"], job["staged_pass"])
    return {"facts": staged(tr, job), "spans": tr.spans}


# -- the metrics (in the benchmark process, over every pass's spans) -------


def layer_metrics(tr, facts) -> dict:
    """The current workload's layer metrics: times from the spans (best
    pass), counts from the last pass's ``facts``.  A stage the workload
    does not have reads 0."""
    sec = tr.seconds
    n, alerts = facts["records"], facts.get("alerts", 0)
    stored = tr.count("store.object_scan")
    taken = tr.count("resilience.checkpoint")
    serial_s = sec("engine.serial")
    stages_s = sum(sec(stage) for stage in (
        "logio.stats", "core.tag", "analysis.severity", "core.filter"
    ))
    bounded_s, sharded_s = sec("engine.bounded"), sec("parallel.sharded")

    return {
        "logio.read_us_per_rec": _per(sec("logio.read"), n),
        "logio.gunzip_decode_us_per_rec":
            _per(sec("logio.gunzip_decode"), n),
        "logmodel.parse_us_per_rec": _per(sec("logmodel.parse"), n),
        "logmodel.corrupted_frac": facts.get("corrupted", 0) / n,
        "logio.render_us_per_rec": _per(sec("logio.render"), n),
        "logio.stats_us_per_rec": _per(sec("logio.stats"), n),
        "logio.stats_record_us_per_rec": _per(sec("logio.stats_record"), n),
        "core.tag_us_per_rec": _per(sec("core.tag"), n),
        "core.tag_hit_frac": alerts / n,
        "core.filter_us_per_alert": _per(sec("core.filter"), alerts),
        "core.filter_kept_frac": facts.get("kept", 0) / max(alerts, 1),
        "analysis.severity_us_per_rec": _per(sec("analysis.severity"), n),
        "engine.serial_us_per_rec": _per(serial_s, n),
        "engine.glue_us_per_rec": _per(serial_s - stages_s, n),
        "engine.bounded_overhead_frac":
            bounded_s / serial_s - 1 if bounded_s else 0.0,
        "resilience.shed_records": facts.get("shed", 0),
        "resilience.queue_peak_frac": facts.get("queue_peak_frac", 0),
        "parallel.speedup_vs_serial":
            serial_s / sharded_s if sharded_s else 0.0,
        "parallel.tag_batches_us_per_rec":
            _per(sec("parallel.tag_batches"), n),
        "parallel.batches": facts.get("batches", 0),
        "parallel.batches_retried": facts.get("batches_retried", 0),
        "resilience.checkpoint_ms":
            _per(sec("resilience.checkpoint"), taken, 1e3),
        "resilience.checkpoint_bytes": facts.get("checkpoint_bytes", 0),
        "resilience.checkpoints_taken": taken,
        "streaming.observe_us_per_alert":
            _per(sec("streaming.observe"), alerts),
        "streaming.warnings": facts.get("warnings", 0),
        "store.write_us_per_alert": _per(sec("store.write"), alerts),
        "store.bytes_per_alert": facts.get("store_bytes", 0) / max(stored, 1),
        "store.partitions": facts.get("store_partitions", 0),
        "store.object_scan_us_per_alert":
            _per(sec("store.object_scan"), stored),
        "store.column_scan_us_per_row":
            _per(sec("store.column_scan"), stored),
        "store.aggregate_ms": sec("store.aggregate") * 1e3,
        "store.load_result_ms": sec("store.load_result") * 1e3,
        "reporting.tables_ms": sec("reporting.tables") * 1e3,
        "reporting.figures_ms": sec("reporting.figures") * 1e3,
        "service.parse_us_per_line": _per(sec("service.parse"), n),
        "service.process_us_per_line": _per(sec("service.process"), n),
    }
