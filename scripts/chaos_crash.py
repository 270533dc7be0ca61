#!/usr/bin/env python
"""Crash-chaos harness: SIGKILL real pipeline processes at
deterministic-random points — including *inside* durability writes —
and prove recovery is byte-identical to an uninterrupted run.

Only what needs a real process is checked here.  Tier-1 checks the
rest in-process: kills, full disks (ENOSPC/EIO) and damaged generations
or MANIFESTs on the durable batch path in the hypothesis fault model
``tests/resilience/test_crash_model.py``, and torn or bit-rotten journal
segments in ``tests/resilience/test_durability.py``'s WAL property.

Phases (all seeded from ``--seed``; every failure is collected, the
process exits 1 if any phase saw one):

1. **Baselines** — each matrix row runs uninterrupted twice, in-memory
   and with a ``--state-dir``, proving durability does not perturb the
   output and learning the record and filesystem-op counts that kill
   points are drawn from.  The plain rows cover the serial / sharded /
   bounded drivers; the prediction rows add the streaming miner and
   online predictor ensemble (``predict=True``) and must emit warnings.
2. **Kill cycles** (``--cycles`` over the plain rows, default 25, and a
   quarter as many over the prediction rows) — each cycle takes a fresh
   state dir through one or two SIGKILLs and a final restart.  Each row
   alternates kills after a random *record* with kills inside a random
   filesystem op, where the worker's
   :class:`~repro.resilience.faults.FaultyFilesystem` tears a checkpoint
   write in half and SIGKILLs the process mid-write.  The final run
   must fingerprint byte-identical to the baseline; with prediction the
   fingerprint covers warnings, ensemble members, refits and the
   correlation graph.
3. **RLIMIT_FSIZE** — the real OS refuses writes over a tiny file-size
   cap (EFBIG with SIGXFSZ ignored): the run must complete degraded
   with the baseline fingerprint.
4. **Service kill** (skippable with ``--skip-service``) — a 10-tenant
   ``repro serve`` session over loopback TCP is SIGKILLed between
   quiesced bursts and restarted from its ``--state-dir``; the drained
   final report (counters and alert tails) must match an uninterrupted
   reference session byte-for-byte, with zero degraded durability.

Usage::

    PYTHONPATH=src python scripts/chaos_crash.py --cycles 25
    PYTHONPATH=src python scripts/chaos_crash.py --cycles 5 --skip-service
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Plain rows: (driver, paper dialect, generator scale, seed, predict).
#: Scales are tuned so every run holds 10k-20k records — enough for a
#: dozen checkpoints at CHECKPOINT_EVERY without slowing the cycle loop.
#: A ``None`` seed is ``--seed``.
DRIVER_MATRIX = (
    ("serial", "bgl", 2e-3, None, False),
    ("sharded", "thunderbird", 5e-5, None, False),
    ("bounded", "liberty", 5e-5, None, False),
)
#: Prediction rows, run with ``predict=True``.  These are the calibrated
#: golden scenarios (see scripts/make_golden.py) at the same seeds, so
#: every run installs ensemble members and emits a non-trivial warning
#: stream for the widened fingerprint to pin.
PREDICT_MATRIX = (
    ("serial", "thunderbird", 3e-4, 11, True),
    ("sharded", "redstorm", 1e-4, 11, True),
)
CHECKPOINT_EVERY = 400
SIGKILL_RC = -int(signal.SIGKILL)
RESULT_PREFIX = "RESULT "
REPORT_PREFIX = "REPORT "


# ---------------------------------------------------------------------------
# batch worker: one pipeline run in a subprocess the parent can SIGKILL
# ---------------------------------------------------------------------------


def _kill_after(records, n: int):
    """Yield records, then SIGKILL our own process after the n-th one —
    the 'power cord' failure the durable state must survive."""
    for count, record in enumerate(records, 1):
        yield record
        if count >= n:
            os.kill(os.getpid(), signal.SIGKILL)


def _driver_knobs(driver: str):
    from repro.parallel.config import ParallelConfig
    from repro.resilience.backpressure import BackpressureConfig

    if driver == "serial":
        return None, None
    if driver == "sharded":
        return ParallelConfig(workers=2, batch_size=256), None
    if driver == "bounded":
        # Roomy buffers: bounded-mode output stays byte-identical to
        # serial (nothing sheds), so the fingerprint check is exact.
        return None, BackpressureConfig(
            max_buffer=1024, arrival_batch=256, service_batch=256,
        )
    raise SystemExit(f"unknown driver {driver!r}")


def result_fingerprint(result) -> str:
    """A digest over everything the run *claims* about the log: volume
    statistics, both alert streams, the Table-4 category counts, the
    dead-letter tally and, with prediction, the whole report (warnings,
    ensemble members, refits, correlation graph).  Runtime dynamics
    (throughput, queue peaks) are deliberately excluded — a resumed run
    legitimately differs there."""
    def alerts(stream):
        return [(a.timestamp, a.source, a.category) for a in stream]

    claims = (
        result.stats, alerts(result.raw_alerts),
        alerts(result.filtered_alerts),
        sorted(result.category_counts().items()), result.corrupted_messages,
        result.dead_letters.quarantined if result.dead_letters else 0,
        result.prediction,
    )
    return hashlib.sha256(repr(claims).encode("utf-8")).hexdigest()


def batch_worker(args) -> int:
    restore_fsize = None
    if args.rlimit_fsize:
        import resource

        # Without this the kernel delivers SIGXFSZ and kills us instead
        # of letting write() return EFBIG for the store to account.
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        _, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (args.rlimit_fsize, hard))
        # The cap covers *every* file this process writes, including our
        # own result line; lift it again once the pipeline is done.
        restore_fsize = lambda: resource.setrlimit(  # noqa: E731
            resource.RLIMIT_FSIZE, (hard, hard)
        )

    from repro import api
    from repro.resilience.checkpoint import CheckpointManager
    from repro.resilience.deadletter import DeadLetterQueue
    from repro.resilience.durability import CheckpointStore
    from repro.resilience.faults import FaultyFilesystem
    from repro.simulation.generator import generate_log

    records = list(
        generate_log(args.system, scale=args.scale, seed=args.seed).records
    )
    source = iter(records)
    if args.kill_at_record:
        source = _kill_after(source, args.kill_at_record)
    parallel, backpressure = _driver_knobs(args.driver)
    checkpointer = store = None
    if args.state_dir:
        token = (
            f"chaos|driver={args.driver}|system={args.system}"
            f"|scale={args.scale!r}|seed={args.seed}"
            f"|predict={'on' if args.predict else 'off'}"
        )
        # Unarmed, the fault filesystem only counts ops for the baselines.
        store = CheckpointStore(
            args.state_dir, token=token,
            fs=FaultyFilesystem(kill_at=args.fs_kill_at),
        )
        checkpointer = CheckpointManager(
            every=args.checkpoint_every, store=store
        )
    result = api.run_stream(
        source, args.system,
        dead_letters=DeadLetterQueue(capacity=len(records) + 1),
        checkpointer=checkpointer,
        backpressure=backpressure, parallel=parallel,
        state_dir=args.state_dir or None,
        predict=bool(args.predict),
    )
    if restore_fsize is not None:
        restore_fsize()
    print(RESULT_PREFIX + json.dumps({
        "fingerprint": result_fingerprint(result),
        "records": len(records),
        "raw_alerts": len(result.raw_alerts),
        "warnings": (
            result.prediction.warnings_emitted
            if result.prediction is not None else None
        ),
        "saved": store.saved if store is not None else 0,
        "fs_ops": store.fs.ops if store is not None else None,
        "durability": store.status.as_dict() if store is not None else None,
    }), flush=True)
    return 0


def _worker_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_batch_worker(
    row, seed: int, state_dir=None, kill_at_record=None, fs_kill_at=None,
    rlimit_fsize=0,
):
    driver, system, scale, row_seed, predict = row
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker", "batch",
        "--driver", driver, "--system", system, "--scale", repr(scale),
        "--seed", str(seed if row_seed is None else row_seed),
        "--checkpoint-every", str(CHECKPOINT_EVERY),
    ]
    if predict:
        cmd += ["--predict"]
    if state_dir:
        cmd += ["--state-dir", str(state_dir)]
    if kill_at_record:
        cmd += ["--kill-at-record", str(kill_at_record)]
    if fs_kill_at is not None:
        cmd += ["--fs-kill-at", str(fs_kill_at)]
    if rlimit_fsize:
        cmd += ["--rlimit-fsize", str(rlimit_fsize)]
    # File-backed output and a fresh process group: a SIGKILLed sharded
    # run leaves pool children holding inherited pipe ends (a pipe-based
    # capture would wait on them forever), so we wait on the worker pid
    # alone and then sweep the whole group.
    with tempfile.TemporaryFile(mode="w+") as stdout, \
            tempfile.TemporaryFile(mode="w+") as stderr:
        proc = subprocess.Popen(
            cmd, env=_worker_env(), stdout=stdout, stderr=stderr,
            text=True, start_new_session=True,
        )
        try:
            returncode = proc.wait(timeout=600)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
        stdout.seek(0)
        stderr.seek(0)
        out_text, err_text = stdout.read(), stderr.read()
    result = None
    for line in out_text.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
    return returncode, result, err_text


# ---------------------------------------------------------------------------
# phases 1-3: baselines, kill cycles, file-size cap
# ---------------------------------------------------------------------------


def _label(row) -> str:
    return row[0] + ("+predict" if row[4] else "")


def compute_baselines(args, failures):
    """Uninterrupted fingerprints per row, in-memory vs durable, plus
    the record / fs-op counts the kill cycles draw their points from."""
    baselines = {}
    for row in DRIVER_MATRIX + PREDICT_MATRIX:
        label = _label(row)
        rc, plain, stderr = run_batch_worker(row, args.seed)
        if rc != 0 or plain is None:
            failures.append(f"baseline {label}: rc={rc}: {stderr[-500:]}")
            continue
        probe_dir = Path(args.tmp) / f"probe-{label}"
        rc, durable, stderr = run_batch_worker(
            row, args.seed, state_dir=probe_dir
        )
        if rc != 0 or durable is None:
            failures.append(
                f"baseline {label} (durable): rc={rc}: {stderr[-500:]}"
            )
            continue
        if durable["fingerprint"] != plain["fingerprint"]:
            failures.append(
                f"baseline {label}: durable run diverged from in-memory run"
            )
        if durable["saved"] < 2:
            failures.append(
                f"baseline {label}: only {durable['saved']} checkpoints "
                f"persisted over {plain['records']} records; kill cycles "
                "need at least 2"
            )
        if row[-1] and not plain["warnings"]:
            failures.append(
                f"baseline {label} ({row[1]}): no warnings emitted — the "
                "prediction fingerprint would pin nothing"
            )
        baselines[label] = {
            "row": row,
            "fingerprint": plain["fingerprint"],
            "records": plain["records"],
            "fs_ops": durable["fs_ops"],
        }
        warnings = (f", {plain['warnings']} warnings"
                    if plain["warnings"] is not None else "")
        print(f"  baseline {label:16s} ({row[1]}): "
              f"{plain['records']:,} records, {plain['raw_alerts']:,} "
              f"alerts{warnings}, {durable['fs_ops']} fs ops, "
              f"{durable['saved']} checkpoints")
    return baselines


def cycle_plan(cycles: int):
    """``(label, fs_kill)`` per cycle: ``cycles`` over the plain rows,
    then a quarter as many (at least one per row) over the prediction
    rows.  Row r's k-th cycle kills inside a write when r + k is odd, so
    each row alternates and neighbouring rows start differently."""
    plan = []
    for matrix, count in (
        (DRIVER_MATRIX, cycles),
        (PREDICT_MATRIX, max(len(PREDICT_MATRIX), cycles // 4)),
    ):
        for cycle in range(count):
            r, k = cycle % len(matrix), cycle // len(matrix)
            plan.append((_label(matrix[r]), (r + k) % 2 == 1))
    return plan


def kill_cycle_phase(args, rng, baselines, failures):
    plan = cycle_plan(args.cycles)
    # [between records, inside durability writes] per row
    kills = {_label(row): [0, 0] for row in DRIVER_MATRIX + PREDICT_MATRIX}
    for cycle, (label, fs_kill) in enumerate(plan):
        base = baselines.get(label)
        if base is None:
            continue
        state_dir = Path(args.tmp) / f"cycle-{cycle:03d}"
        planned = 1 + (rng.random() < 0.35)
        final = None
        # planned armed attempts, then up to 2 clean restarts to finish.
        for attempt in range(planned + 2):
            armed = attempt < planned
            kill_at_record = fs_kill_at = None
            if armed and fs_kill:
                fs_kill_at = rng.randrange(0, max(1, base["fs_ops"]))
            elif armed:
                kill_at_record = rng.randrange(
                    CHECKPOINT_EVERY // 2, base["records"]
                )
            rc, out, stderr = run_batch_worker(
                base["row"], args.seed, state_dir=state_dir,
                kill_at_record=kill_at_record, fs_kill_at=fs_kill_at,
            )
            if rc == 0 and out is not None:
                final = out
                break
            if rc != SIGKILL_RC:
                failures.append(
                    f"cycle {cycle} ({label}): worker died rc={rc} "
                    f"(not SIGKILL): {stderr[-500:]}"
                )
                break
            kills[label][fs_kill_at is not None] += 1
        if final is None:
            if not failures or f"cycle {cycle}" not in failures[-1]:
                failures.append(
                    f"cycle {cycle} ({label}): never completed after "
                    f"{planned + 2} attempts"
                )
            continue
        if final["fingerprint"] != base["fingerprint"]:
            failures.append(
                f"cycle {cycle} ({label}): recovered output diverged "
                "from the uninterrupted baseline"
            )
        if final["durability"] and final["durability"]["degraded"]:
            failures.append(
                f"cycle {cycle} ({label}): unexpected degraded "
                f"durability: {final['durability']['reason']}"
            )
    for label, (record_kills, fs_kills) in kills.items():
        cycles = sum(name == label for name, _fs_kill in plan)
        landed = record_kills + fs_kills
        print(f"  {label:16s} {cycles:2d} cycles, {landed:2d} SIGKILLs "
              f"({record_kills} between records, {fs_kills} inside "
              "durability writes)")
        if landed < cycles:
            failures.append(
                f"{label}: only {landed} kills landed across {cycles} "
                "cycles; every cycle's first armed attempt should die"
            )
    if args.cycles >= 2 and not any(fs for _rec, fs in kills.values()):
        failures.append("no SIGKILL landed inside a durability write")


def rlimit_phase(args, baselines, failures):
    row = DRIVER_MATRIX[0]
    base = baselines.get(_label(row))
    if base is None:
        return
    state_dir = Path(args.tmp) / "rlimit"
    rc, out, stderr = run_batch_worker(
        row, args.seed, state_dir=state_dir, rlimit_fsize=512,
    )
    if rc != 0 or out is None:
        failures.append(f"rlimit-fsize: run crashed rc={rc}: {stderr[-500:]}")
        return
    if out["fingerprint"] != base["fingerprint"]:
        failures.append("rlimit-fsize: output diverged under EFBIG")
    status = out["durability"] or {}
    if not status.get("degraded"):
        failures.append("rlimit-fsize: degraded mode not latched under "
                        "a real kernel file-size cap")
    if status.get("unpersisted_checkpoints", 0) < 1:
        failures.append("rlimit-fsize: no checkpoint was refused")
    print(f"  RLIMIT_FSIZE=512: completed degraded "
          f"({status.get('unpersisted_checkpoints')} checkpoints refused "
          "by the kernel), output intact")


# ---------------------------------------------------------------------------
# phase 4 + worker: SIGKILL a live multi-tenant serve session
# ---------------------------------------------------------------------------


def serve_worker(args) -> int:
    import asyncio

    from repro.service import IngestService, ServiceConfig

    async def run() -> None:
        config = ServiceConfig(
            state_dir=args.state_dir or None,
            checkpoint_every=1,       # every drained burst is durable
            enable_udp=False,
            max_buffer=1 << 16,       # roomy: nothing sheds, so the
            dead_letter_capacity=200_000,  # reference run is exact
            alert_tail=64,
            idle_ttl=3600.0,
            housekeeping_interval=0.05,
            drain_timeout=60.0,
        )
        service = IngestService(config)
        await service.start()
        print(json.dumps(
            {"tcp": service.tcp_port, "stats": service.stats_port}
        ), flush=True)
        await service.run_until_stopped(install_signals=True)
        report = {}
        for tenant_id in sorted(
            set(service.router.tenants) | set(service.router.parked)
        ):
            row = service.tenant_stats(tenant_id)
            tail = service.alert_tail(tenant_id) or []
            row["alert_tail"] = [
                [a.timestamp, a.source, a.category] for a in tail
            ]
            report[tenant_id] = row
        report["_durability"] = (
            service.router.state_store.status.as_dict()
            if service.router.state_store is not None else None
        )
        print(REPORT_PREFIX + json.dumps(report), flush=True)

    asyncio.run(run())
    return 0


class ServeWorker:
    """One serve subprocess; the parent kills or drains it."""

    def __init__(self, state_dir, stderr_path: Path):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--worker", "serve"]
        if state_dir:
            cmd += ["--state-dir", str(state_dir)]
        self._stderr = open(stderr_path, "ab")
        self.proc = subprocess.Popen(
            cmd, env=_worker_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"serve worker died on startup (stderr: {stderr_path})"
            )
        ports = json.loads(line)
        self.tcp_port = ports["tcp"]
        self.stats_port = ports["stats"]

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._stderr.close()

    def drain_report(self):
        self.proc.send_signal(signal.SIGTERM)
        report = None
        for line in self.proc.stdout:
            if line.startswith(REPORT_PREFIX):
                report = json.loads(line[len(REPORT_PREFIX):])
        self.proc.wait(timeout=120)
        self.proc.stdout.close()
        self._stderr.close()
        return report


def build_service_feed(tenants: int, scale: float, seed: int):
    """Per-tenant wire lines across all five dialects, rendered exactly
    as ``tests/service`` and the soak harness do."""
    from repro.logio.writer import renderer_for
    from repro.service.router import format_envelope
    from repro.simulation.generator import generate_log
    from repro.systems.specs import SYSTEMS

    systems = sorted(SYSTEMS)
    feeds = {}
    for index in range(tenants):
        system = systems[index % len(systems)]
        records = generate_log(
            system, scale=scale, seed=seed + index
        ).records
        render = renderer_for(system)
        tenant_id = f"chaos{index:02d}-{system}"
        feeds[tenant_id] = [
            format_envelope(tenant_id, system, render(r)) for r in records
        ]
    return feeds


def _send_segment(port: int, segment) -> None:
    """Interleave every tenant's chunk round-robin over one connection."""
    lines, cursors = [], {tid: 0 for tid in segment}
    remaining = sum(len(chunk) for chunk in segment.values())
    while remaining:
        for tenant_id, chunk in segment.items():
            start = cursors[tenant_id]
            take = chunk[start:start + 64]
            if take:
                lines.extend(take)
                cursors[tenant_id] = start + len(take)
                remaining -= len(take)
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(("\n".join(lines) + "\n").encode("utf-8"))


def _wait_quiesced(stats_port: int, expected, timeout: float = 60.0) -> bool:
    """Poll the stats endpoint until every tenant has received all lines
    sent so far and drained its queue (two consecutive observations, so
    the worker has reached its post-batch checkpoint barrier)."""
    from repro.service import query_stats

    deadline = time.monotonic() + timeout
    streak = 0
    while time.monotonic() < deadline:
        try:
            stats = query_stats("127.0.0.1", stats_port)
        except (OSError, ValueError):
            time.sleep(0.05)
            continue
        rows = stats.get("tenants", {})
        quiet = all(
            rows.get(tid, {}).get("received", -1) == sent
            and rows.get(tid, {}).get("queue_depth", 1) == 0
            for tid, sent in expected.items()
        )
        streak = streak + 1 if quiet else 0
        if streak >= 2:
            return True
        time.sleep(0.05)
    return False


def run_service_session(feeds, state_dir, kills: int, stderr_path: Path):
    """Feed every tenant's lines in ``kills + 1`` bursts, SIGKILLing and
    restarting the serve process between bursts; returns the drained
    final report (or raises on session failure)."""
    segments = []
    for part in range(kills + 1):
        segment = {}
        for tenant_id, lines in feeds.items():
            size = (len(lines) + kills) // (kills + 1)
            chunk = lines[part * size:(part + 1) * size]
            if chunk:
                segment[tenant_id] = chunk
        segments.append(segment)

    sent = {tenant_id: 0 for tenant_id in feeds}
    worker = ServeWorker(state_dir, stderr_path)
    try:
        for index, segment in enumerate(segments):
            _send_segment(worker.tcp_port, segment)
            for tenant_id, chunk in segment.items():
                sent[tenant_id] += len(chunk)
            if not _wait_quiesced(worker.stats_port, sent):
                raise RuntimeError(
                    f"segment {index}: service never quiesced "
                    f"(sent so far: {sum(sent.values())})"
                )
            if index < len(segments) - 1:
                # The durable checkpoint happens right after the drained
                # batch the stats snapshot observed; give it a beat.
                time.sleep(0.4)
                worker.kill()
                worker = ServeWorker(state_dir, stderr_path)
        time.sleep(0.2)
        report = worker.drain_report()
    except Exception:
        worker.proc.kill()
        raise
    if report is None:
        raise RuntimeError("serve worker drained without a final report")
    return report


SERVICE_COMPARE_KEYS = (
    "received", "shed", "refused", "processed",
    "alerts_raw", "alerts_filtered",
)


def kill_service_check(
    tenants: int, scale: float, seed: int, kills: int, state_root,
) -> list:
    """The service-kill contract as a reusable list-of-failures check
    (the soak harness's ``--kill-service`` phase calls this too)."""
    failures = []
    state_root = Path(state_root)
    feeds = build_service_feed(tenants, scale, seed)
    total = sum(len(lines) for lines in feeds.values())
    print(f"  {tenants} tenants, {total:,} wire lines, {kills} SIGKILLs")

    reference = run_service_session(
        feeds, state_dir=None, kills=0,
        stderr_path=state_root / "serve-reference.stderr",
    )
    survived = run_service_session(
        feeds, state_dir=state_root / "serve-state", kills=kills,
        stderr_path=state_root / "serve-chaos.stderr",
    )

    resumes = 0
    for tenant_id in feeds:
        ref, got = reference.get(tenant_id), survived.get(tenant_id)
        if ref is None or got is None:
            failures.append(f"{tenant_id}: missing from a final report")
            continue
        for key in SERVICE_COMPARE_KEYS:
            if ref[key] != got[key]:
                failures.append(
                    f"{tenant_id}: {key} {got[key]} != reference "
                    f"{ref[key]} after {kills} kills"
                )
        if ref["alert_tail"] != got["alert_tail"]:
            failures.append(
                f"{tenant_id}: alert tail diverged from the "
                "uninterrupted reference"
            )
        if not got.get("conserves", False):
            failures.append(f"{tenant_id}: conservation broken after kills")
        resumes += got.get("resumes", 0)
    if resumes < tenants * kills:
        failures.append(
            f"only {resumes} resurrections across {tenants} tenants x "
            f"{kills} kills; the durable state was not actually used"
        )
    durability = survived.get("_durability") or {}
    if durability.get("degraded"):
        failures.append(
            f"service durability degraded: {durability.get('reason')}"
        )
    if not failures:
        print(f"  {resumes} resurrections; counters and alert tails "
              "byte-identical to the uninterrupted reference")
    return failures


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--cycles", type=int, default=25,
                        help="SIGKILL/recover cycles across the drivers "
                             "(a quarter as many again run with online "
                             "prediction)")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--service-tenants", type=int, default=10)
    parser.add_argument("--service-scale", type=float, default=6e-6)
    parser.add_argument("--service-kills", type=int, default=2)
    parser.add_argument("--skip-service", action="store_true",
                        help="skip the serve-session kill phase")
    # internal: subprocess entrypoints
    parser.add_argument("--worker", choices=("batch", "serve"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--driver", default="serial",
                        help=argparse.SUPPRESS)
    parser.add_argument("--system", default="bgl", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=2e-3,
                        help=argparse.SUPPRESS)
    parser.add_argument("--state-dir", default="", help=argparse.SUPPRESS)
    parser.add_argument("--checkpoint-every", type=int,
                        default=CHECKPOINT_EVERY, help=argparse.SUPPRESS)
    parser.add_argument("--kill-at-record", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--fs-kill-at", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--rlimit-fsize", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--predict", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker == "batch":
        return batch_worker(args)
    if args.worker == "serve":
        return serve_worker(args)

    rng = random.Random(args.seed)
    failures = []
    with tempfile.TemporaryDirectory(prefix="chaos-crash-") as tmp:
        args.tmp = tmp
        started = time.monotonic()

        print("phase 1: uninterrupted baselines")
        baselines = compute_baselines(args, failures)

        print(f"phase 2: {len(cycle_plan(args.cycles))} SIGKILL/recover "
              "cycles")
        kill_cycle_phase(args, rng, baselines, failures)

        print("phase 3: kernel file-size cap (RLIMIT_FSIZE / EFBIG)")
        rlimit_phase(args, baselines, failures)

        if not args.skip_service:
            print("phase 4: serve-session SIGKILL / resurrection")
            try:
                failures.extend(kill_service_check(
                    args.service_tenants, args.service_scale, args.seed,
                    args.service_kills, tmp,
                ))
            except Exception as exc:  # noqa: BLE001 - harness boundary
                failures.append(f"service phase crashed: {exc!r}")

        elapsed = time.monotonic() - started

    if failures:
        print(f"\nFAIL ({elapsed:.1f}s): {len(failures)} violations")
        for failure in failures[:40]:
            print(f"  - {failure}")
        return 1
    print(f"\nOK ({elapsed:.1f}s): every SIGKILL recovered byte-identical; "
          "the kernel's file-size cap degraded without losing output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
