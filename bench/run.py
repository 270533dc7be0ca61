"""The repo's benchmark: five workloads, end-to-end metrics, a cost ledger.

    python3 bench/run.py                      # every workload, both passes
    python3 bench/run.py --smoke              # the same at a tenth the size
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Per workload: set the inputs up from the seed (timed: ``setup_s``), run
the system under test in a fresh process per repetition for ``--seconds``
with tracing off, verify every repetition's outputs against the
reference computed in set-up (and, for the default seed, against the
digests committed in ``expected.json``), then — as a separate traced
pass — replay the workload layer by layer with a span around every call
into a layer (see ``layers.py``).

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names.  Without it every workload runs both passes
and every metric is printed by name with its unit.  Either way the spans
and the full numbers land in ``bench/out/trace.json`` and
``bench/out/results.json``, and the exit code is non-zero if any output
was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from itertools import zip_longest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: no program to measure ({SRC}/repro is missing)")
sys.path[:0] = [str(SRC), str(BENCH)]

import layers  # noqa: E402
import workloads  # noqa: E402
# Imported here so the first set-up does not pay for it: ``setup_s`` is
# what generating the inputs costs, the same for every set-up of a run.
from repro import api, simulation  # noqa: E402,F401

#: Set-ups per run: the median is reported as ``setup_s``, and all of
#: them must produce the same reference digests (same seed, same inputs).
SETUPS = 3
MIN_REPETITIONS = 3
#: Passes of the staged layer replay; each stage reports its best pass.
STAGED_PASSES = 5


def load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class Zygote:
    """The fork server of ``sut.py``: one fresh child per submitted job,
    one JSON line back per ``readline``."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spawned_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "sut.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        self.startup_s = (self.readline()["ready_ns"] - self.spawned_ns) / 1e9

    def submit(self, job_path: str) -> None:
        self.proc.stdin.write(job_path + "\n")
        self.proc.stdin.flush()

    def readline(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the system-under-test process died")
        out = json.loads(line)
        if "error" in out:
            raise RuntimeError(f"system under test failed: {out['error']}")
        return out

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            # Its own session, so this reaches a stuck child and any
            # worker pool the child started.
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


# -- load generation for the service workload ------------------------------


def blast(port: int, payloads) -> int:
    """Send every payload as fast as its connection accepts it, one
    thread per connection; returns when the first byte was sent."""
    datas = []
    for payload in payloads:
        with open(payload["path"], "rb") as handle:
            datas.append(handle.read())
    socks = [socket.create_connection(("127.0.0.1", port)) for _ in datas]
    threads = [
        threading.Thread(target=sock.sendall, args=(data,))
        for sock, data in zip(socks, datas)
    ]
    first_byte_ns = time.monotonic_ns()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for sock in socks:
        sock.close()
    return first_byte_ns


def paced_plan(inputs):
    """The paced phase's wire chunks (all tenants round-robin on one
    connection) and, per tenant, the chunk that carries each line the
    reference says emits an alert."""
    from repro.service.router import format_envelope

    tenants = list(inputs["native"])
    budget = int(workloads.PACED_RATE * workloads.PACED_SECONDS)
    wire, emitting_chunks = [], {tenant: [] for tenant in tenants}
    for index, row in enumerate(
        zip_longest(*(inputs["native"][t] for t in tenants))
    ):
        for tenant, line in zip(tenants, row):
            if line is None or len(wire) >= budget:
                continue
            if inputs["emitted"][tenant][index]:
                emitting_chunks[tenant].append(
                    len(wire) // workloads.PACED_CHUNK
                )
            wire.append(format_envelope(tenant, tenant, line))
    chunks = [
        ("\n".join(wire[i:i + workloads.PACED_CHUNK]) + "\n").encode()
        for i in range(0, len(wire), workloads.PACED_CHUNK)
    ]
    return chunks, len(wire), emitting_chunks


def paced(zygote, inputs, root, tr) -> dict:
    """Open loop at a fixed rate against a default-configured service.
    Each alert is timed from when its chunk was *due* to when a
    coroutine in the service process saw the tenant's emitted-alert
    count pass it (k-th emitted alert <-> k-th line the reference says
    emits one)."""
    chunks, lines, emitting_chunks = paced_plan(inputs)
    interval_ns = int(1e9 * workloads.PACED_CHUNK / workloads.PACED_RATE)
    scratch = tempfile.mkdtemp(dir=root, prefix="paced-")
    job_path = workloads.write_job(
        inputs, scratch, lines=lines, poll_s=0.001, watch_alerts=True,
        config={},  # the service's defaults, not the blast's roomy queues
    )
    with tr.span("service.paced", parent="extras", count=lines):
        zygote.submit(job_path)
        port = zygote.readline()["tcp_port"]
        late_ns = 0
        with socket.create_connection(("127.0.0.1", port)) as sock:
            start_ns = time.monotonic_ns() + 50_000_000
            for k, chunk in enumerate(chunks):
                due = start_ns + k * interval_ns
                while (now := time.monotonic_ns()) < due:
                    time.sleep((due - now) / 1e9)
                late_ns = max(late_ns, now - due)
                sock.sendall(chunk)
        out = zygote.readline()
    latencies = sorted(
        (seen - (start_ns + chunk * interval_ns)) / 1e6
        for tenant, chunk_ids in emitting_chunks.items()
        for seen, chunk in zip(out["alert_seen_ns"].get(tenant, ()), chunk_ids)
    )
    received = sum(row["received"] for row in out["tenants"].values())
    lost = sum(row["shed"] + row["refused"] for row in out["tenants"].values())
    metrics = {
        "service.paced_shed_frac": lost / max(received, 1),
        "service.generator_late_ms_max": late_ns / 1e6,
        "service.alert_latency_samples": len(latencies),
    }
    if latencies:
        metrics["service.alert_latency_p50_ms"] = statistics.median(latencies)
        metrics["service.alert_latency_p99_ms"] = latencies[
            min(len(latencies) - 1, int(0.99 * len(latencies)))
        ]
    return metrics


# -- one workload ----------------------------------------------------------


def child(zygote, inputs, root, **extra) -> dict:
    """One job in a fresh process with a fresh scratch directory, which
    stays until ``root`` goes: deleting a run's few hundred store files
    here leaves the filesystem journal work that the next repetition's
    fsyncs then wait for (measured: 37k records/s against 45k on the
    durable workload), and that is not the program's cost."""
    scratch = tempfile.mkdtemp(dir=root, prefix="job-")
    zygote.submit(workloads.write_job(inputs, scratch, **extra))
    out = zygote.readline()
    if "tcp_port" in out:
        # The service is listening: its clock starts with the load.
        first_byte_ns = blast(out["tcp_port"], inputs["payloads"])
        out = dict(zygote.readline(), t0_ns=first_byte_ns)
    return out


def failed_records(inputs, out, pinned) -> int:
    """Records not accounted as processed; every record of the run when
    an output digest is wrong (against the reference, or the reference
    against the committed digests)."""
    attempted = inputs["records"]
    if out["digests"] != inputs["digests"]:
        return attempted
    if pinned is not None and pinned != inputs["digests"]:
        return attempted
    return attempted - min(out["processed"], attempted)


def summarise(values, pick=statistics.median) -> dict:
    return {"value": pick(values), "median": statistics.median(values),
            "min": min(values), "max": max(values), "n": len(values),
            "values": list(values)}


def set_up(name, args, root, tr):
    """Set the workload up (several times when ``setup_s`` is wanted);
    returns the inputs and each set-up's seconds."""
    seconds, inputs = [], None
    for index in range(SETUPS if args.end_to_end else 1):
        with tr.span("setup", parent="workload") as span:
            start = time.perf_counter()
            again = workloads.setup(
                name, args.seed, args.smoke, root,
                span=lambda n, count=0: tr.span(n, parent="setup",
                                                count=count),
            )
            seconds.append(time.perf_counter() - start)
            span["count"] = again["records"]
        if inputs is not None and again["digests"] != inputs["digests"]:
            raise RuntimeError(f"{name}: set-up {index} of seed {args.seed} "
                               "produced different inputs")
        inputs = again
    return inputs, seconds


def run_workload(name, args, spec, root, tr, zygote, pinned) -> dict:
    """Set up, measure untraced, verify, and (if asked) trace one
    workload.  Returns its entry for ``results.json``."""
    tr.workload = name
    calib_s = [layers.calibrate()]
    inputs, setup_s = set_up(name, args, root, tr)
    attempted = inputs["records"]
    runs = []

    def untraced() -> None:
        """One untraced run of the system under test."""
        out = child(zygote, inputs, root)
        out["wall_s"] = (out["t1_ns"] - out["t0_ns"]) / 1e9
        out["failed"] = failed_records(inputs, out, pinned)
        tr.add("sut.run", out["t0_ns"], out["t1_ns"], parent="untraced",
               count=attempted)
        runs.append(out)

    started = time.perf_counter()
    while args.end_to_end and (
        len(runs) < MIN_REPETITIONS
        or time.perf_counter() - started < args.seconds
    ):
        untraced()
    layer = {}
    if args.traced:
        # An untraced repetition before every staged pass, so both sides
        # of the ledger sample the same stretch of the host's time; the
        # best whole pass is then set against the best repetition.
        replayed_s = []
        for tr.pass_id in range(STAGED_PASSES):
            untraced()
            out = child(zygote, inputs, root, staged_pass=tr.pass_id)
            tr.spans.extend(out["spans"])
            replayed_s.append(layers.replay_seconds(out["spans"]))
        tr.pass_id = 0
        layer = layers.layer_metrics(tr, out["facts"])
        overhead = min(replayed_s) / min(o["wall_s"] for o in runs) - 1
        layer["engine.trace_overhead_frac"] = overhead
        layer["engine.ledger_residual_frac"] = abs(overhead)
        if name == "serve_tcp_blast":
            layer.update(paced(zygote, inputs, root, tr))
    calib_s.append(layers.calibrate())

    entry = {
        "records": attempted, "alerts": inputs["alerts"],
        "digests": inputs["digests"], "attempted": attempted,
        "failed": max(out["failed"] for out in runs),
        "repetitions": len(runs),
        "host_calib_s": calib_s,
        "end_to_end": {
            "setup_s": summarise(setup_s),
            # The fastest repetition: what the program does when the
            # host leaves it alone (see README, "Noise").
            "records_per_s": summarise(
                [attempted / out["wall_s"] for out in runs], pick=max
            ),
            "peak_rss_mib": summarise(
                [out["maxrss_kib"] / 1024 for out in runs]
            ),
        },
        "per_layer": {},
    }
    if args.traced:
        layer.update(run_metrics(entry, runs, tr, zygote))
        # Every layer metric on every workload: 0 where the workload
        # does not exercise the layer.
        entry["per_layer"] = {
            metric["name"]: float(layer.get(metric["name"], 0))
            for metric in spec["per_layer"]
        }
    return entry


def run_metrics(entry, runs, tr, zygote) -> dict:
    """Layer metrics that come from the untraced repetitions and from
    set-up."""
    attempted = entry["attempted"]
    cpu_s = statistics.median(out["cpu_s"] for out in runs)
    last = runs[-1]
    metrics = {
        "failed_frac": entry["failed"] / attempted,
        "host.calib_ms": statistics.mean(entry["host_calib_s"]) * 1e3,
        "simulation.generate_us_per_rec": 1e6
            * tr.seconds("simulation.generate")
            / max(tr.count("simulation.generate"), 1),
        "engine.startup_s": zygote.startup_s + tr.seconds("engine.oneoff"),
        "engine.cpu_s_per_mrec": cpu_s / attempted * 1e6,
    }
    if "report_s" in last:
        metrics["report_s"] = statistics.median(o["report_s"] for o in runs)
        metrics["disk_bytes_per_alert"] = last["store_bytes"] / last["alerts"]
    if "tenants" in last:
        metrics["service.cpu_us_per_line"] = cpu_s / attempted * 1e6
        metrics["service.queue_peak"] = max(
            row["queue_peak"] for row in last["tenants"].values()
        )
    return metrics


# -- reporting -------------------------------------------------------------


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def metric_lines(entry, spec):
    """``name unit value median [min .. max] n`` rows for one workload."""
    for metric in spec["end_to_end"]:
        stat = entry["end_to_end"].get(metric["name"])
        if stat is not None:
            yield (f"  {metric['name']:<34} {metric['unit']:<10} "
                   f"{stat['value']:>14.4f}  median {stat['median']:.4f} "
                   f"[{stat['min']:.4f} .. {stat['max']:.4f}]  "
                   f"n={stat['n']}")
    for metric in spec["per_layer"]:
        value = entry["per_layer"].get(metric["name"])
        if value:
            yield (f"  {metric['name']:<34} {metric['unit']:<10} "
                   f"{value:>14.4f}")


def driver_line(entry, spec, traced: bool) -> str:
    """The contract's last line: every end-to-end metric with tracing
    off, every per-layer metric from the traced pass (0 where a workload
    does not exercise the layer)."""
    if traced:
        metrics = {
            m["name"]: {"value": entry["per_layer"][m["name"]],
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": entry["end_to_end"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return json.dumps({
        "correct": entry["failed"] == 0, "attempted": entry["attempted"],
        "failed": entry["failed"], "metrics": metrics,
    })


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="run one workload and end with the JSON line")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="generates the inputs; the program never "
                             "sees it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced measuring time per workload "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 0 = end-to-end metrics "
                             "only, 1 = per-layer metrics from the traced "
                             "pass")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tenth of its size, "
                             "--seconds 1")
    parser.add_argument("--expected", default=str(BENCH / "expected.json"),
                        help="committed default-seed digests")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate the digests for this size")
    parser.add_argument("--out", default=str(BENCH / "out"),
                        help="where results.json, trace.json and the "
                             "scratch directory go")
    args = parser.parse_args(argv)
    if args.smoke and args.seconds is None:
        args.seconds = 1.0
    if args.trace is not None and args.workload is None:
        parser.error("--trace goes with --workload")
    # One workload runs the pass --trace picks; all of them run both.
    args.traced = args.trace != 0
    args.end_to_end = args.trace != 1
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_benchmark_json()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    with open(args.expected, encoding="utf-8") as handle:
        expected = json.load(handle)
    size = "smoke" if args.smoke else "full"
    pinned = (
        expected[size]
        if args.seed == expected["seed"] and not args.write_expected else {}
    )

    os.makedirs(args.out, exist_ok=True)
    tr = layers.Tracer()
    results = {}
    with tempfile.TemporaryDirectory(dir=args.out, prefix="tmp-") as root, \
            Zygote() as zygote:
        for name in names:
            results[name] = run_workload(
                name, args, spec, root, tr, zygote, pinned.get(name)
            )

    if args.write_expected:
        expected[size].update(
            (name, entry["digests"]) for name, entry in results.items()
        )
        with open(args.expected, "w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")
    meta = {
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "seed": args.seed,
        "size": size, "seconds": args.seconds,
        "workers": workloads.sharded_workers(), "git_sha": git_sha(),
        "sizes": {name: entry["records"] for name, entry in results.items()},
        "repetitions": {
            name: entry["repetitions"] for name, entry in results.items()
        },
    }
    with open(os.path.join(args.out, "results.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"meta": meta, "workloads": results}, handle, indent=1)
    if args.traced:
        with open(os.path.join(args.out, "trace.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(tr.spans, handle)

    wrong = [name for name, entry in results.items() if entry["failed"]]
    for name, entry in results.items():
        print(f"{name}: {entry['records']} records, "
              f"{entry['repetitions']} repetitions, "
              f"failed_frac {entry['failed'] / entry['attempted']:g}")
        if entry["failed"]:
            # A workload whose outputs are wrong reports no numbers.
            print("  OUTPUT MISMATCH: numbers withheld")
            continue
        for line in metric_lines(entry, spec):
            print(line)
    if args.workload:
        print(driver_line(results[args.workload], spec, bool(args.trace)))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
