"""Workload definitions: what each one feeds the program and why.

Set-up for a workload generates its inputs from the seed, writes them
where the system-under-test process will find them, and computes the
reference outputs with a strict per-record ``AlertPath.admit`` /
``process`` loop — the semantics every driver must reproduce.  The
program never sees the seed: it sees a gzip file, a pickled record list
or a socket.

There are two sizes: the full one, which the committed numbers and
``BENCHMARK.json`` refer to, and the smoke one, every workload scaled by
``SMOKE_SIZE``.
"""

from __future__ import annotations

import calendar
import json
import os
import pickle
import time

import sut

DEFAULT_SEED = 2007

#: Records per batch wherever the benchmark itself cuts batches (the
#: staged layer replay and the sharded driver's ``batch_size``).
BATCH = 2048

#: The smoke size as a share of the full one.
SMOKE_SIZE = 0.1

#: One job, one process; ``why`` is what BENCHMARK.json records.
#: ``scale`` multiplies message volume and ``incidents`` the number of
#: distinct failures (``generate_log``'s ``incident_scale``); the smoke
#: size multiplies both, so bursts keep their multiplicity — and the
#: store its alerts-per-partition — at either size.
WORKLOADS = {
    "liberty_file_serial": {
        "why": "gz Liberty syslog, <1% alerts, serial: reader/parser and "
               "stats carry the run; tag, filter, sink and store do "
               "almost nothing",
        "system": "liberty", "scale": 2.5e-4, "incidents": 0.25,
        "year": 2004,
    },
    "spirit_file_durable": {
        "why": "gz Spirit syslog, ~64% of lines tagged, store + state dir "
               "+ predict, then report replay: regex, filter, streaming, "
               "store, checkpoints and reporting carry the run",
        "system": "spirit", "scale": 1.1e-4, "incidents": 0.08,
        "year": 2005,
    },
    "bgl_mem_bounded": {
        "why": "pre-parsed BG/L records, bounded tick pump, nothing shed: "
               "reader bypassed; engine pump + backpressure vs the serial "
               "cost of the same stream",
        "system": "bgl", "scale": 1.6e-2, "incidents": 0.1,
    },
    "bgl_mem_sharded": {
        "why": "the same BG/L records, tagging sharded over nproc-1 "
               "workers: encode -> IPC -> rebuild; a bounded-pump change "
               "must not move it",
        "system": "bgl", "scale": 1.6e-2, "incidents": 0.1,
    },
    "serve_tcp_blast": {
        "why": "five tenants, one per dialect, blasted over two TCP "
               "connections at an IngestService with room for every line: "
               "listener, router, per-record AlertPath.process",
        "incidents": 0.1,
    },
}

#: Tenant -> dialect for the service workload, grouped by the TCP
#: connection that carries the tenant (per-tenant order must survive, so
#: a tenant never straddles connections).
SERVE_CONNECTIONS = (
    ("bgl", "liberty", "spirit"),
    ("thunderbird", "redstorm"),
)
#: Generator scale per dialect: ~6,000 lines of background traffic per
#: tenant, plus its alerts.
SERVE_SCALES = {
    "bgl": 1.4e-3, "liberty": 2.3e-5, "spirit": 6e-5,
    "thunderbird": 2.9e-5, "redstorm": 2.8e-5,
}

#: Paced phase of the service workload (traced pass only): open loop at
#: a fixed rate against a default-configured service.
PACED_RATE = 5000
PACED_SECONDS = 3.0
PACED_CHUNK = 50


def sharded_workers() -> int:
    return max(1, (os.cpu_count() or 1) - 1)


def strict_reference(records, system, **path_options):
    """The reference run: one record at a time through the path.
    Returns the finished path and the per-record "emitted an alert"
    flags (which the paced latency pairing needs)."""
    from repro.engine.path import AlertPath

    path = AlertPath(system, **path_options)
    raw = path.sink.raw_alerts
    emitted = []
    for record in records:
        before = len(raw)
        if path.admit(record):
            path.process(record)
        emitted.append(len(raw) > before)
    return path, emitted


def _generate(system, scale, incidents, seed):
    from repro.simulation import generate_log

    return list(generate_log(
        system, scale=scale, seed=seed, incident_scale=incidents
    ).records)


def setup_file(name, spec, seed, size, root, span):
    """Generate a calibrated log, write it gzipped in the machine's
    native format, and compute the reference from the file as written
    (rendering quantises timestamps, so the file is the input)."""
    from repro.logio import read_log, write_log

    system = spec["system"]
    with span("simulation.generate") as s:
        records = _generate(
            system, spec["scale"] * size, spec["incidents"] * size, seed
        )
        s["count"] = len(records)
    path = os.path.join(root, f"{system}.log.gz")
    with span("logio.write", count=len(records)):
        write_log(records, path, system, compress=True)
    del records
    durable = name == "spirit_file_durable"
    with span("reference") as s:
        options = {}
        if durable:
            from repro.streaming import PredictionStage

            options["prediction"] = PredictionStage()
        ref, _ = strict_reference(
            read_log(path, system, year=spec["year"]), system, **options
        )
        result = ref.result()
        digests = sut.result_digests(result, sut.report_text(result))
        s["count"] = result.stats.messages
    job = {"kind": "batch", "system": system, "path": path,
           "year": spec["year"], "durable": durable}
    return {"records": result.stats.messages, "job": job,
            "digests": digests, "alerts": len(result.raw_alerts)}


def setup_mem(name, spec, seed, size, root, span):
    """Generate BG/L records and hand them over pre-parsed (pickled; the
    child unpickles before its clock starts)."""
    system = spec["system"]
    with span("simulation.generate") as s:
        records = _generate(
            system, spec["scale"] * size, spec["incidents"] * size, seed
        )
        s["count"] = len(records)
    path = os.path.join(root, f"{system}.records.pkl")
    with span("logio.write", count=len(records)):
        with open(path, "wb") as handle:
            pickle.dump(records, handle, protocol=pickle.HIGHEST_PROTOCOL)
    with span("reference", count=len(records)):
        ref, _ = strict_reference(records, system)
        result = ref.result()
        digests = sut.result_digests(result, sut.report_text(result))
    job = {"kind": "batch", "system": system, "records": path}
    if name == "bgl_mem_bounded":
        job["max_buffer"] = 8192
    else:
        job.update(workers=sharded_workers(), batch_size=BATCH)
    return {"records": len(records), "job": job, "digests": digests,
            "alerts": len(result.raw_alerts)}


#: Dialects whose lines carry no year.
YEARLESS = ("liberty", "spirit", "thunderbird")


def _fold_into_one_year(records):
    """Merge a multi-year log in day-of-year order.  Syslog lines carry
    no year and the service parses with one fixed year, so a tenant
    that replayed its log as written would run backwards at New Year
    and have its alerts dead-lettered as out of order; merged, the lines
    are monotone as parsed and every one of them is sent."""
    def as_parsed(record):
        t = time.gmtime(record.timestamp)
        return calendar.timegm((sut.SERVICE_YEAR,) + tuple(t[1:6]))

    return sorted(records, key=as_parsed)


def setup_serve(name, spec, seed, size, root, span):
    """Five tenants' lines in wire form, one payload per connection,
    plus the per-tenant reference (parse -> admit/process with a
    dead-letter queue, which is what a tenant worker does)."""
    from itertools import zip_longest

    from repro.logio import renderer_for
    from repro.resilience.deadletter import DeadLetterQueue
    from repro.service.router import format_envelope, parse_native_line

    tenants = [t for group in SERVE_CONNECTIONS for t in group]
    native = {}
    with span("simulation.generate") as s:
        generated = 0
        for system in tenants:
            records = _generate(
                system, SERVE_SCALES[system] * size,
                spec["incidents"] * size, seed,
            )
            generated += len(records)
            if system in YEARLESS:
                records = _fold_into_one_year(records)
            render = renderer_for(system)
            native[system] = [render(record) for record in records]
        s["count"] = generated
    total = sum(len(lines) for lines in native.values())
    with span("logio.write", count=total):
        payloads = []
        for index, group in enumerate(SERVE_CONNECTIONS):
            wire = [
                format_envelope(system, system, line)
                for row in zip_longest(*(native[system] for system in group))
                for system, line in zip(group, row) if line is not None
            ]
            path = os.path.join(root, f"conn{index}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(wire) + "\n")
            payloads.append({"path": path, "lines": len(wire)})
    digests, emitted, alerts = {}, {}, 0
    with span("reference", count=total):
        for system in tenants:
            ref, flags = strict_reference(
                (parse_native_line(line, system, sut.SERVICE_YEAR)
                 for line in native[system]),
                system, dead_letters=DeadLetterQueue(),
            )
            if ref.dead_letters.quarantined:
                raise RuntimeError(
                    f"{system}: the reference dead-letters "
                    f"{ref.dead_letters.summary()}; every workload "
                    "operation must succeed"
                )
            digests[system] = sut.path_digests(ref)
            digests[system]["alerts_raw"] = len(ref.sink.raw_alerts)
            digests[system]["alerts_filtered"] = len(ref.sink.filtered_alerts)
            emitted[system] = flags
            alerts += len(ref.sink.raw_alerts)
    job = {
        "kind": "serve", "lines": total, "timeout_s": 60, "poll_s": 0.005,
        "payloads": payloads,
        # Room for every line, so the number is service rate, not shed
        # share.
        "config": {"max_buffer": total, "global_queue_budget": 2 * total},
    }
    return {"records": total, "job": job, "digests": digests,
            "alerts": alerts, "payloads": payloads, "native": native,
            "emitted": emitted}


def setup(name, seed, smoke, root, span):
    """Set one workload up under ``root``; ``span(name, count=)`` is the
    tracer's context manager."""
    spec = WORKLOADS[name]
    size = SMOKE_SIZE if smoke else 1.0
    if name == "serve_tcp_blast":
        inputs = setup_serve(name, spec, seed, size, root, span)
    elif "year" in spec:
        inputs = setup_file(name, spec, seed, size, root, span)
    else:
        inputs = setup_mem(name, spec, seed, size, root, span)
    inputs["job"]["workload"] = name
    return inputs


def write_job(inputs, scratch, **extra) -> str:
    """Materialise one repetition's job file (fresh scratch dir)."""
    job = dict(inputs["job"], scratch=scratch, **extra)
    path = os.path.join(scratch, "job.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    return path

