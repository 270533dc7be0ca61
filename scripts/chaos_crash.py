#!/usr/bin/env python
"""Crash-chaos harness: SIGKILL the pipeline at deterministic-random
points — including *inside* durability writes — and prove recovery is
byte-identical to an uninterrupted run.

Phases (all seeded from ``--seed``; every failure is collected, the
process exits 1 if any phase saw one):

1. **Baselines** — each driver (serial / sharded / bounded, one paper
   dialect each) runs uninterrupted twice: once in-memory and once with
   a ``--state-dir``, proving durability itself does not perturb the
   output, and learning the run's record and filesystem-op counts so
   kill points can be drawn inside them.
2. **Kill cycles** (``--cycles``, default 25) — each cycle runs a fresh
   state dir through one or two SIGKILLs and a final restart.  Even
   cycles kill after a random *record* (the stream dies between
   checkpoints); odd cycles arm ``REPRO_FAULT_FS_KILL_AT`` so the
   injected :class:`~repro.resilience.faults.FaultyFilesystem` tears a
   checkpoint write in half, fsyncs the torn prefix, and SIGKILLs the
   process mid-write.  The final run must complete and fingerprint
   byte-identical to the baseline.
3. **Online-prediction kill cycles** (``--predict-cycles``, default 6)
   — the kill-and-restart contract of phase 2, with the streaming
   correlation miner + online predictor ensemble riding the run
   (``predict=True``).  The fingerprint widens to cover the full
   warning stream, ensemble membership, refit count, and correlation
   graph, so a resumed run that drops, duplicates, or re-times a single
   warning — or resumes the miner ahead of the filter clocks — fails.
4. **ENOSPC / EIO** — ``REPRO_FAULT_FS_FAIL_AFTER`` makes the disk fail
   mid-run and stay failed.  The run must still complete with the
   baseline fingerprint (zero alert loss) while the durability status
   accounts for every unpersisted checkpoint exactly:
   ``taken == saved + unpersisted``.
5. **RLIMIT_FSIZE** — the real OS refuses writes over a tiny file-size
   cap (EFBIG with SIGXFSZ ignored); same contract as phase 4, no
   injection involved.
6. **Torn-tail / bit-rot fuzz** — in-process: random truncations and
   byte flips over WAL segments must replay to a clean *prefix* (never
   an exception, never reordered or invented entries); a corrupted
   checkpoint generation must quarantine and fall back to the previous
   generation.
7. **Service kill** (skippable with ``--skip-service``) — a 10-tenant
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

#: Driver matrix: (driver, paper dialect, generator scale).  Scales are
#: tuned so every run holds 10k-20k records — enough for a dozen
#: checkpoints at CHECKPOINT_EVERY without slowing the cycle loop.
DRIVER_MATRIX = (
    ("serial", "bgl", 2e-3),
    ("sharded", "thunderbird", 5e-5),
    ("bounded", "liberty", 5e-5),
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
    count = 0
    for record in records:
        yield record
        count += 1
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
    statistics, both alert streams, the Table-4 category counts, and the
    dead-letter tally.  Runtime dynamics (throughput, queue peaks) are
    deliberately excluded — a resumed run legitimately differs there."""
    parts = [
        repr(result.stats),
        repr([(a.timestamp, a.source, a.category) for a in result.raw_alerts]),
        repr([
            (a.timestamp, a.source, a.category)
            for a in result.filtered_alerts
        ]),
        repr(sorted(result.category_counts().items())),
        repr(result.corrupted_messages),
        repr(result.dead_letters.quarantined if result.dead_letters else 0),
    ]
    prediction = getattr(result, "prediction", None)
    if prediction is not None:
        # A predict-enabled run widens the claim: the exact warning
        # stream, ensemble membership, refit schedule, and correlation
        # graph must all survive kill/recover.
        parts += [
            repr([
                (w.t, w.category, w.score, w.kind, w.valid_from, w.valid_until)
                for w in prediction.warnings
            ]),
            repr(prediction.warnings_emitted),
            repr([
                (m.target, m.kind, m.precision, m.recall, m.f1)
                for m in prediction.members
            ]),
            repr(prediction.refits),
            repr(prediction.observed),
            repr(prediction.graph),
        ]
    payload = "\n".join(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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
    from repro.simulation.generator import generate_log

    records = list(
        generate_log(args.system, scale=args.scale, seed=args.seed).records
    )
    source = iter(records)
    if args.kill_at_record:
        source = _kill_after(source, args.kill_at_record)
    parallel, backpressure = _driver_knobs(args.driver)
    checkpointer = (
        CheckpointManager(every=args.checkpoint_every)
        if args.state_dir else None
    )
    token = (
        f"chaos|driver={args.driver}|system={args.system}"
        f"|scale={args.scale!r}|seed={args.seed}"
        f"|predict={'on' if args.predict else 'off'}"
    )
    result = api.run_stream(
        source, args.system,
        dead_letters=DeadLetterQueue(capacity=len(records) + 1),
        checkpointer=checkpointer,
        backpressure=backpressure, parallel=parallel,
        state_dir=args.state_dir or None, state_token=token,
        predict=bool(args.predict),
    )
    if restore_fsize is not None:
        restore_fsize()
    store = checkpointer.store if checkpointer is not None else None
    print(RESULT_PREFIX + json.dumps({
        "fingerprint": result_fingerprint(result),
        "records": len(records),
        "raw_alerts": len(result.raw_alerts),
        "filtered_alerts": len(result.filtered_alerts),
        "warnings": (
            result.prediction.warnings_emitted
            if result.prediction is not None else None
        ),
        "taken": checkpointer.taken if checkpointer is not None else 0,
        "saved": store.saved if store is not None else 0,
        "fs_ops": (
            getattr(store.fs, "ops", None) if store is not None else None
        ),
        "durability": store.status.as_dict() if store is not None else None,
    }), flush=True)
    return 0


def _worker_env(extra: dict = None) -> dict:
    from repro.resilience import faults

    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # Hygiene: a fault armed in *our* environment must not leak into
    # workers that did not ask for it.
    for key in (faults.ENV_FAULT_FS_KILL_AT, faults.ENV_FAULT_FS_FAIL_AFTER,
                faults.ENV_FAULT_FS_ERRNO):
        env.pop(key, None)
    if extra:
        env.update(extra)
    return env


class _WorkerOutput:
    """What a finished batch worker left behind (mirrors the two
    ``subprocess`` attributes the phase code reads)."""

    def __init__(self, stdout: str, stderr: str):
        self.stdout = stdout
        self.stderr = stderr


def run_batch_worker(
    driver: str, system: str, scale: float, seed: int,
    state_dir=None, kill_at_record=None, fault_env=None, rlimit_fsize=0,
    predict=False,
):
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker", "batch",
        "--driver", driver, "--system", system, "--scale", repr(scale),
        "--seed", str(seed), "--checkpoint-every", str(CHECKPOINT_EVERY),
    ]
    if predict:
        cmd += ["--predict"]
    if state_dir:
        cmd += ["--state-dir", str(state_dir)]
    if kill_at_record:
        cmd += ["--kill-at-record", str(kill_at_record)]
    if rlimit_fsize:
        cmd += ["--rlimit-fsize", str(rlimit_fsize)]
    # File-backed output and a fresh process group: a SIGKILLed sharded
    # run leaves pool children holding inherited pipe ends (a pipe-based
    # capture would wait on them forever), so we wait on the worker pid
    # alone and then sweep the whole group.
    with tempfile.TemporaryFile(mode="w+") as stdout, \
            tempfile.TemporaryFile(mode="w+") as stderr:
        proc = subprocess.Popen(
            cmd, env=_worker_env(fault_env), stdout=stdout, stderr=stderr,
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
    return returncode, result, _WorkerOutput(out_text, err_text)


# ---------------------------------------------------------------------------
# phases 1-5: baselines, kill cycles (plain + prediction), full-disk,
# file-size cap
# ---------------------------------------------------------------------------


def compute_baselines(args, failures):
    """Uninterrupted fingerprints per driver, in-memory vs durable, plus
    the record / fs-op counts the kill phases draw their points from."""
    from repro.resilience import faults

    baselines = {}
    for driver, system, scale in DRIVER_MATRIX:
        rc, plain, proc = run_batch_worker(driver, system, scale, args.seed)
        if rc != 0 or plain is None:
            failures.append(
                f"baseline {driver}: rc={rc}: {proc.stderr[-500:]}"
            )
            continue
        probe_dir = Path(args.tmp) / f"probe-{driver}"
        # fail_after far beyond any real op count: the FaultyFilesystem
        # arms (so ops are counted) but never actually fails.
        rc, durable, proc = run_batch_worker(
            driver, system, scale, args.seed, state_dir=probe_dir,
            fault_env={faults.ENV_FAULT_FS_FAIL_AFTER: "1000000000"},
        )
        if rc != 0 or durable is None:
            failures.append(
                f"baseline {driver} (durable): rc={rc}: {proc.stderr[-500:]}"
            )
            continue
        if durable["fingerprint"] != plain["fingerprint"]:
            failures.append(
                f"baseline {driver}: durable run diverged from in-memory run"
            )
        if durable["saved"] < 2:
            failures.append(
                f"baseline {driver}: only {durable['saved']} checkpoints "
                f"persisted over {plain['records']} records; kill cycles "
                "need at least 2"
            )
        baselines[driver] = {
            "system": system, "scale": scale,
            "fingerprint": plain["fingerprint"],
            "records": plain["records"],
            "fs_ops": durable["fs_ops"],
            "raw_alerts": plain["raw_alerts"],
        }
        print(f"  baseline {driver:8s} ({system}): "
              f"{plain['records']:,} records, {plain['raw_alerts']:,} "
              f"alerts, {durable['fs_ops']} fs ops, "
              f"{durable['saved']} checkpoints")
    return baselines


def kill_cycle_phase(args, rng, baselines, failures):
    from repro.resilience import faults

    kills = record_kills = fs_kills = 0
    for cycle in range(args.cycles):
        driver, system, scale = DRIVER_MATRIX[cycle % len(DRIVER_MATRIX)]
        base = baselines.get(driver)
        if base is None:
            continue
        state_dir = Path(args.tmp) / f"cycle-{cycle:03d}"
        planned = 1 + (rng.random() < 0.35)
        final = None
        # planned armed attempts, then up to 2 clean restarts to finish.
        for attempt in range(planned + 2):
            armed = attempt < planned
            kill_at_record, fault_env = None, None
            if armed and cycle % 2 == 0:
                kill_at_record = rng.randrange(
                    CHECKPOINT_EVERY // 2, base["records"]
                )
            elif armed:
                fault_env = {
                    faults.ENV_FAULT_FS_KILL_AT:
                        str(rng.randrange(0, max(1, base["fs_ops"]))),
                }
            rc, out, proc = run_batch_worker(
                driver, system, scale, args.seed, state_dir=state_dir,
                kill_at_record=kill_at_record, fault_env=fault_env,
            )
            if rc == 0 and out is not None:
                final = out
                break
            if rc != SIGKILL_RC:
                failures.append(
                    f"cycle {cycle} ({driver}): worker died rc={rc} "
                    f"(not SIGKILL): {proc.stderr[-500:]}"
                )
                break
            kills += 1
            if fault_env is not None:
                fs_kills += 1
            else:
                record_kills += 1
        if final is None:
            if not failures or f"cycle {cycle}" not in failures[-1]:
                failures.append(
                    f"cycle {cycle} ({driver}): never completed after "
                    f"{planned + 2} attempts"
                )
            continue
        if final["fingerprint"] != base["fingerprint"]:
            failures.append(
                f"cycle {cycle} ({driver}): recovered output diverged "
                "from the uninterrupted baseline"
            )
        if final["durability"] and final["durability"]["degraded"]:
            failures.append(
                f"cycle {cycle} ({driver}): unexpected degraded "
                f"durability: {final['durability']['reason']}"
            )
    print(f"  {args.cycles} cycles, {kills} SIGKILLs "
          f"({record_kills} between records, {fs_kills} inside durability "
          "writes), all recoveries byte-identical"
          if not failures else
          f"  {args.cycles} cycles, {kills} SIGKILLs, "
          f"{len(failures)} failures so far")
    if kills < args.cycles:
        failures.append(
            f"only {kills} kills landed across {args.cycles} cycles; "
            "every cycle's first armed attempt should die"
        )
    if args.cycles >= 2 and not fs_kills:
        failures.append("no SIGKILL landed inside a durability write")


#: Online-prediction matrix: (driver, system, scale, generator seed).
#: These are the calibrated golden scenarios (see scripts/make_golden.py)
#: at the same seeds, so every run installs ensemble members and emits a
#: non-trivial warning stream for the widened fingerprint to pin.
PREDICT_MATRIX = (
    ("serial", "thunderbird", 3e-4, 11),
    ("sharded", "redstorm", 1e-4, 11),
)


def prediction_kill_phase(args, rng, failures):
    """Kill/recover with the prediction stage riding the run: the
    recovered warning stream, members, refits, and correlation graph
    must be byte-identical to the uninterrupted baseline's."""
    baselines = {}
    for driver, system, scale, seed in PREDICT_MATRIX:
        rc, base, proc = run_batch_worker(
            driver, system, scale, seed, predict=True
        )
        if rc != 0 or base is None:
            failures.append(
                f"predict baseline {driver}: rc={rc}: {proc.stderr[-500:]}"
            )
            continue
        if not base["warnings"]:
            failures.append(
                f"predict baseline {driver} ({system}): no warnings "
                "emitted — the prediction fingerprint would pin nothing"
            )
        baselines[driver] = base
        print(f"  baseline {driver:8s} ({system}): "
              f"{base['records']:,} records, {base['warnings']} warnings")

    kills = 0
    for cycle in range(args.predict_cycles):
        driver, system, scale, seed = PREDICT_MATRIX[
            cycle % len(PREDICT_MATRIX)
        ]
        base = baselines.get(driver)
        if base is None:
            continue
        state_dir = Path(args.tmp) / f"predict-{cycle:03d}"
        kill_at = rng.randrange(CHECKPOINT_EVERY // 2, base["records"])
        final = None
        for attempt in range(3):  # one armed attempt, two clean restarts
            rc, out, proc = run_batch_worker(
                driver, system, scale, seed, state_dir=state_dir,
                kill_at_record=kill_at if attempt == 0 else None,
                predict=True,
            )
            if rc == 0 and out is not None:
                final = out
                break
            if rc != SIGKILL_RC:
                failures.append(
                    f"predict cycle {cycle} ({driver}): worker died "
                    f"rc={rc} (not SIGKILL): {proc.stderr[-500:]}"
                )
                break
            kills += 1
        if final is None:
            if not failures or f"predict cycle {cycle}" not in failures[-1]:
                failures.append(
                    f"predict cycle {cycle} ({driver}): never completed"
                )
            continue
        if final["fingerprint"] != base["fingerprint"]:
            failures.append(
                f"predict cycle {cycle} ({driver}, killed at record "
                f"{kill_at}): recovered prediction output diverged from "
                "the uninterrupted baseline"
            )
        if final["durability"] and final["durability"]["degraded"]:
            failures.append(
                f"predict cycle {cycle} ({driver}): unexpected degraded "
                f"durability: {final['durability']['reason']}"
            )
    print(f"  {args.predict_cycles} cycles, {kills} SIGKILLs, warning "
          "streams and correlation graphs recovered byte-identical"
          if not failures else
          f"  {args.predict_cycles} cycles, {kills} SIGKILLs, "
          f"{len(failures)} failures so far")
    if kills < args.predict_cycles and baselines:
        failures.append(
            f"only {kills} prediction kills landed across "
            f"{args.predict_cycles} cycles"
        )


def full_disk_phase(args, rng, baselines, failures):
    from repro.resilience import faults

    for i, errno_name in enumerate(("ENOSPC", "EIO", "ENOSPC")):
        driver, system, scale = DRIVER_MATRIX[i % len(DRIVER_MATRIX)]
        base = baselines.get(driver)
        if base is None:
            continue
        state_dir = Path(args.tmp) / f"enospc-{i}"
        fail_after = rng.randrange(0, max(1, base["fs_ops"] // 2))
        rc, out, proc = run_batch_worker(
            driver, system, scale, args.seed, state_dir=state_dir,
            fault_env={
                faults.ENV_FAULT_FS_FAIL_AFTER: str(fail_after),
                faults.ENV_FAULT_FS_ERRNO: errno_name,
            },
        )
        label = f"{errno_name} at op {fail_after} ({driver})"
        if rc != 0 or out is None:
            failures.append(
                f"full-disk {label}: run crashed rc={rc}: "
                f"{proc.stderr[-500:]}"
            )
            continue
        if out["fingerprint"] != base["fingerprint"]:
            failures.append(
                f"full-disk {label}: output diverged — a storage failure "
                "lost pipeline data"
            )
        status = out["durability"] or {}
        if not status.get("degraded"):
            failures.append(f"full-disk {label}: degraded mode not latched")
        unpersisted = status.get("unpersisted_checkpoints", 0)
        if out["taken"] != out["saved"] + unpersisted:
            failures.append(
                f"full-disk {label}: accounting broken — taken "
                f"{out['taken']} != saved {out['saved']} + unpersisted "
                f"{unpersisted}"
            )
        if unpersisted < 1:
            failures.append(
                f"full-disk {label}: nothing was unpersisted; the fault "
                "never landed"
            )
        print(f"  {label}: completed degraded, {out['saved']} saved + "
              f"{unpersisted} unpersisted = {out['taken']} taken, "
              "output intact")


def rlimit_phase(args, baselines, failures):
    driver, system, scale = DRIVER_MATRIX[0]
    base = baselines.get(driver)
    if base is None:
        return
    state_dir = Path(args.tmp) / "rlimit"
    rc, out, proc = run_batch_worker(
        driver, system, scale, args.seed, state_dir=state_dir,
        rlimit_fsize=512,
    )
    if rc != 0 or out is None:
        failures.append(
            f"rlimit-fsize: run crashed rc={rc}: {proc.stderr[-500:]}"
        )
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
# phase 6: torn-tail / bit-rot fuzz (in-process)
# ---------------------------------------------------------------------------


def fuzz_phase(args, rng, failures):
    from repro.resilience.durability import CheckpointStore, SegmentedWal

    root = Path(args.tmp) / "fuzz"
    trials = args.fuzz_trials
    for trial in range(trials):
        directory = root / f"wal-{trial:03d}"
        segment_bytes = rng.choice((128, 256, 1 << 20))
        wal = SegmentedWal(
            str(directory), segment_bytes=segment_bytes, sync_every=1
        )
        entries = [
            ("op", (trial, i, "x" * rng.randrange(0, 64)))
            for i in range(rng.randrange(1, 24))
        ]
        for kind, obj in entries:
            wal.append(kind, obj)
        wal.close()
        names = wal.segments()
        if names:
            path = directory / rng.choice(names)
            data = path.read_bytes()
            if len(data) > 7 and rng.random() < 0.5:
                path.write_bytes(data[:rng.randrange(1, len(data))])
            elif data:
                i = rng.randrange(len(data))
                path.write_bytes(
                    data[:i] + bytes((data[i] ^ 0xFF,)) + data[i + 1:]
                )
        fresh = SegmentedWal(
            str(directory), segment_bytes=segment_bytes, sync_every=1
        )
        try:
            replayed = list(fresh.replay())
        except Exception as exc:  # noqa: BLE001 - the contract under test
            failures.append(f"wal fuzz {trial}: replay raised {exc!r}")
            continue
        if replayed != entries[:len(replayed)]:
            failures.append(
                f"wal fuzz {trial}: replay is not a clean prefix "
                f"({len(replayed)} of {len(entries)} entries)"
            )

    flips = 0
    for trial in range(max(8, trials // 4)):
        directory = root / f"ckpt-{trial:03d}"
        store = CheckpointStore(str(directory), token="fuzz")
        for generation in range(1, 4):
            store.save({"generation": generation, "trial": trial})
        newest = sorted(
            n for n in os.listdir(directory)
            if n.startswith("gen-") and n.endswith(".ckpt")
        )[-1]
        path = directory / newest
        data = path.read_bytes()
        i = rng.randrange(len(data))
        path.write_bytes(data[:i] + bytes((data[i] ^ 0xFF,)) + data[i + 1:])
        flips += 1
        fresh = CheckpointStore(str(directory), token="fuzz")
        try:
            payload = fresh.load(dict)
        except Exception as exc:  # noqa: BLE001 - the contract under test
            failures.append(f"ckpt fuzz {trial}: load raised {exc!r}")
            continue
        if payload != {"generation": 2, "trial": trial}:
            failures.append(
                f"ckpt fuzz {trial}: corrupt newest generation did not "
                f"fall back to the previous one (got {payload!r})"
            )
        if not (directory / (newest + ".corrupt")).exists():
            failures.append(
                f"ckpt fuzz {trial}: corrupt generation not quarantined"
            )
    print(f"  {trials} WAL mutations + {flips} checkpoint bit-flips: "
          "every replay a clean prefix, every corrupt generation "
          "quarantined with fallback")


# ---------------------------------------------------------------------------
# phase 7 + worker: SIGKILL a live multi-tenant serve session
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
                        help="SIGKILL/recover cycles across the drivers")
    parser.add_argument("--predict-cycles", type=int, default=6,
                        help="SIGKILL/recover cycles with online "
                             "prediction riding the run")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--fuzz-trials", type=int, default=60)
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

        print(f"phase 2: {args.cycles} SIGKILL/recover cycles")
        kill_cycle_phase(args, rng, baselines, failures)

        print(f"phase 3: {args.predict_cycles} online-prediction "
              "SIGKILL/recover cycles")
        prediction_kill_phase(args, rng, failures)

        print("phase 4: full-disk (ENOSPC / EIO) degradation")
        full_disk_phase(args, rng, baselines, failures)

        print("phase 5: kernel file-size cap (RLIMIT_FSIZE / EFBIG)")
        rlimit_phase(args, baselines, failures)

        print("phase 6: torn-tail / bit-rot fuzz")
        fuzz_phase(args, rng, failures)

        if not args.skip_service:
            print("phase 7: serve-session SIGKILL / resurrection")
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
          "storage failures degraded with exact accounting; corruption "
          "replayed to clean prefixes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
