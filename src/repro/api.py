"""The stable public API: one import surface for the whole library.

Everything a caller needs rides on five functions::

    from repro import api

    api.run("spirit", scale=1e-4, seed=42)   # generate + full pipeline
    api.run("spirit", records=stream)        # full pipeline over a stream
    api.run_all(scale=1e-4)                  # the five-system study
    api.tag_lines(lines, "liberty")          # native-format lines -> alerts
    api.iter_alerts(records, "bgl")          # streaming alerts, optional shards
    api.serve(tcp_port=5140)                 # the multi-tenant ingest service

These names (plus :func:`run_stream`/:func:`run_system`, the historical
pipeline entry points that :func:`run` wraps) are the supported, stable
surface; the engine/driver internals may reshape without notice.  The paper's
workflow (Sections 3-4) maps directly: generate or read a machine's log,
accumulate Table 2 volume statistics while streaming, tag alerts with the
machine's expert ruleset, filter with Algorithm 3.1, and keep everything
an analysis needs on one :class:`~repro.engine.result.PipelineResult`.

The execution knobs compose orthogonally — ``parallel`` with
``checkpointer``/``resume_from`` (snapshots at batch barriers),
``parallel`` with ``backpressure`` (the pool tags each tick's arrivals
ahead of the bounded queue), and any of them with ``store_dir`` and
with supervision (:func:`run_system` with ``faults`` or
``restart_budget``), which resumes through ``resume_from`` — see
:data:`repro.engine.capabilities.CAPABILITY_TABLE`.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional

from .core.categories import Alert
from .core.filtering import DEFAULT_THRESHOLD
from .core.tagging import RulesetHandle
from .engine.capabilities import build_driver
from .engine.path import DEFAULT_REORDER_TOLERANCE, AlertPath
from .engine.result import PipelineResult
from .logmodel.record import LogRecord
from .resilience.backpressure import BackpressureConfig
from .resilience.checkpoint import CheckpointManager, PipelineCheckpoint
from .resilience.deadletter import DeadLetterQueue
from .parallel.config import ParallelConfig
from .simulation.generator import GeneratedLog, LogGenerator

#: Supervised defaults, applied when ``run_system(faults=...)`` is used
#: without explicit budget/cadence knobs.
DEFAULT_RESTART_BUDGET = 3
DEFAULT_CHECKPOINT_EVERY = 2000

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_REORDER_TOLERANCE",
    "DEFAULT_RESTART_BUDGET",
    "DEFAULT_THRESHOLD",
    "PipelineResult",
    "iter_alerts",
    "run",
    "run_all",
    "run_stream",
    "run_system",
    "serve",
    "tag_lines",
]


def run_stream(
    records: Iterable[LogRecord],
    system: str,
    threshold: float = DEFAULT_THRESHOLD,
    generated: Optional[GeneratedLog] = None,
    dead_letters: Optional[DeadLetterQueue] = None,
    checkpointer: Optional[CheckpointManager] = None,
    resume_from: Optional[PipelineCheckpoint] = None,
    backpressure: Optional[BackpressureConfig] = None,
    parallel: Optional[ParallelConfig] = None,
    state_dir: Optional[str] = None,
    state_token: str = "",
    predict=None,
    store_dir: Optional[str] = None,
) -> PipelineResult:
    """Run the measurement/tag/filter pipeline over any record stream.

    Single pass: volume statistics, severity cross-tab, tagging, and
    filtering all happen as the stream flows through, so an arbitrarily
    large log needs constant memory beyond the alert lists — checkpoints
    included, since a checkpoint holds those lists by reference, never a
    copy.

    With ``store_dir``, the alert lists go away too: every ruled-on
    alert spills to a columnar store under that directory (see
    :mod:`repro.store`), ``result.raw_alerts`` / ``filtered_alerts``
    become lazy scan views, and the whole run — tables and figures
    included — replays later via ``repro report`` without re-running
    the pipeline.  Composes with ``state_dir``: the store commits at
    every checkpoint barrier and a resumed run truncates back to the
    checkpoint's watermark, so a partition is never double-written.

    With ``dead_letters`` attached the pipeline quarantines what it cannot
    process — malformed records, records that crash the tagger, alerts
    whose timestamps run backwards past the reorder tolerance — instead
    of raising.  Without a queue the historical strict behavior holds.

    With a ``checkpointer``, resumable snapshots are taken at the chosen
    driver's consistency barrier (serial: every ``checkpointer.every``
    input records; sharded: batch boundaries; bounded: drained-queue
    barriers); pass the last snapshot back as ``resume_from`` (with the
    *same* deterministic stream) after a crash and the run continues
    without reprocessing, landing byte-identical to an uninterrupted run
    (bounded: within shedding tolerance).

    With ``backpressure`` (a :class:`BackpressureConfig`), the stages run
    behind one bounded ingest queue with credit-based flow control and
    priority-aware load shedding — see
    :class:`~repro.engine.drivers.BoundedDriver` — and the result carries
    an :class:`~repro.resilience.backpressure.OverloadReport`.

    With ``parallel`` (a :class:`ParallelConfig`), tagging fans out to
    worker processes — see :class:`~repro.engine.drivers.ShardedDriver`
    — while stats, severity, and the spatio-temporal filter stay the
    single sequential consumer of the order-preserved merge, so the
    result is identical to a serial run (the differential suites in
    ``tests/parallel/`` and ``tests/engine/`` enforce this).  Both knobs
    compose with each other and with checkpoint/resume; see
    :data:`repro.engine.capabilities.CAPABILITY_TABLE`.

    With ``state_dir``, checkpoints also persist to disk (a
    :class:`~repro.resilience.durability.CheckpointStore` under that
    directory) and the run *auto-resumes*: if the directory holds a
    valid checkpoint recorded under the same ``state_token`` (the run
    configuration fingerprint) by an interrupted run, it is adopted as
    ``resume_from`` and the re-presented stream's consumed prefix is
    skipped — so a SIGKILLed run re-invoked with the same arguments
    completes byte-identical to one that was never interrupted.  A
    checkpoint on disk is a ``seq`` plus a log: the generation carries
    the watermark, and the alerts are in ``store_dir``'s store or,
    without one, in ``state_dir/alerts.log``, a copy each save extends
    by the alerts since the last, so a save's cost does not grow with
    the run.  Storage failures (ENOSPC, EIO, bit-rot)
    degrade rather than crash: the run continues in-memory (the result's
    alert lists stay in memory; a failed copy write is a failed save)
    and ``result.checkpoints.store.status`` carries the exact
    unpersisted accounting.

    With ``predict`` (``True`` for defaults, or a
    :class:`~repro.streaming.PredictionConfig`), a streaming correlation
    miner and online predictor ensemble ride the alert stream — see
    :mod:`repro.streaming` — and the result carries a
    :class:`~repro.streaming.PredictionReport` (lead-time-stamped
    warnings plus a correlation-graph snapshot) as
    ``result.prediction``.  Prediction state rides the checkpoint wire,
    so crash/resume and ``state_dir`` auto-resume restore it exactly.
    """
    if backpressure is not None and dead_letters is None:
        # Bounded mode must never lose a tagged alert silently: the spill
        # path needs somewhere accounted to land.
        dead_letters = DeadLetterQueue()

    store = None
    if state_dir is not None:
        from .resilience.durability import CheckpointStore

        if checkpointer is None:
            checkpointer = CheckpointManager(every=DEFAULT_CHECKPOINT_EVERY)
        if checkpointer.store is None:
            checkpointer.store = CheckpointStore(state_dir, token=state_token)
        # A supervised restart hands back the manager of the attempt that
        # crashed: keep its store, whose generation count is current.
        store = checkpointer.store
        if resume_from is None:
            resume_from = store.load(PipelineCheckpoint)

    store_writer = None
    if store_dir is not None:
        from .store import ColumnarStoreWriter

        # One filesystem for every durable byte of the run.
        store_writer = ColumnarStoreWriter(
            store_dir, system, fs=store.fs if store is not None else None
        )

    prediction = None
    if predict:
        from .streaming import prediction_stage

        prediction = prediction_stage(predict)

    path = AlertPath(
        system,
        threshold=threshold,
        dead_letters=dead_letters,
        resume_from=resume_from,
        prediction=prediction,
        store_writer=store_writer,
    )
    source = iter(records)
    if resume_from is not None:
        source = _skip_resumed_prefix(source, path)
    if checkpointer is not None:
        checkpointer.prime(resume_from)

    driver = build_driver(parallel=parallel, backpressure=backpressure)
    report = driver.run(source, path, checkpointer)

    result = path.result(
        generated=generated,
        shard_stats=report.shard_stats,
        overload=report.overload,
        checkpoints=checkpointer,
    )
    if store_writer is not None:
        from .store import run_summary

        # Persist the non-alert halves and mark the store complete, then
        # refresh the result's reader so it sees the finalized manifest.
        store_writer.finalize(run_summary(result))
        result.store = store_writer.reader()
    if store is not None:
        # A clean finish marks the durable state consumed: re-running
        # the same configuration starts a fresh run instead of resuming
        # into a stream that already completed.
        store.mark_complete()
    return result


def _predict_token(predict) -> str:
    """The ``predict`` knob's contribution to the state-dir fingerprint:
    prediction state from a differently-configured (or predict-less) run
    must not be resumed."""
    if not predict:
        return "off"
    from .streaming import PredictionConfig

    if isinstance(predict, PredictionConfig):
        return repr(predict.key())
    return "on"


def _skip_resumed_prefix(source, path: AlertPath):
    """Skip the consumed prefix of a re-presented stream.

    An in-memory resume is a plain ``islice``.  A *durable* resume also
    owes the rebuilt stats compressor the prefix bytes it had been fed
    (a checkpoint loaded through :mod:`repro.resilience.wire`, the one
    durable codec, carries no live zlib state — the snapshot's pickling
    hook drops it; see :class:`~repro.logio.stats.StatsSnapshot`), so
    each skipped record that was originally observed is replayed
    through ``StatsCollector.replay_record`` while being discarded.
    """
    collector = path.stats_collector
    if collector.pending_replay_bytes <= 0:
        return islice(source, path.consumed, None)

    def skip():
        strict = path.dead_letters is None
        for _ in range(path.consumed):
            try:
                record = next(source)
            except StopIteration:
                return
            if collector.pending_replay_bytes > 0 and (
                strict or path.valid(record)
            ):
                collector.replay_record(record)
        yield from source

    return skip()


def _state_token(**fields) -> str:
    """Fingerprint a run configuration for the durable state store:
    state recorded under a different token must not be resumed into
    this stream."""
    return "|".join(f"{key}={fields[key]!r}" for key in sorted(fields))


def run_system(
    system: str,
    scale: float = 1e-4,
    seed: int = 2007,
    threshold: float = DEFAULT_THRESHOLD,
    incident_scale: float = 1.0,
    faults=None,
    restart_budget: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    backpressure: Optional[BackpressureConfig] = None,
    parallel: Optional[ParallelConfig] = None,
    state_dir: Optional[str] = None,
    predict=None,
    store_dir: Optional[str] = None,
    **generator_kwargs,
) -> PipelineResult:
    """Generate one machine's log and run the full pipeline over it.

    Pass ``faults`` (a :class:`~repro.resilience.faults.FaultConfig`) or
    ``restart_budget`` to run under
    :func:`~repro.resilience.supervisor.supervise`: injected or real
    worker failures are caught, the run resumes from the latest
    checkpoint (at most ``restart_budget`` times, default
    :data:`DEFAULT_RESTART_BUDGET`), and the result reports
    ``degraded``/dead-letter state instead of raising.

    Pass ``checkpoint_every`` to snapshot every N input records whether or
    not the run is supervised: an unsupervised run attaches a real
    :class:`CheckpointManager` and exposes it as ``result.checkpoints``
    (``result.checkpoints.latest`` is the resume point after a crash).

    ``backpressure``, ``parallel``, ``store_dir``, supervision, and
    checkpointing all compose; see
    :data:`repro.engine.capabilities.CAPABILITY_TABLE` for each
    combination's checkpoint barrier and equivalence guarantee.

    With ``state_dir``, checkpoints persist to that directory and a
    re-invocation with the same arguments auto-resumes an interrupted
    run (SIGKILL, host reboot, a supervised run out of restarts) to a
    byte-identical result — the generated stream is deterministic, so
    the durable checkpoint plus the skipped prefix reconstruct the exact
    in-flight state.  The directory is fingerprinted with the run
    configuration; changing ``seed``/``scale``/... starts fresh rather
    than resuming the wrong stream.
    """
    token = ""
    if state_dir is not None:
        token = _state_token(
            system=system, scale=scale, seed=seed, threshold=threshold,
            incident_scale=incident_scale, predict=_predict_token(predict),
            store="on" if store_dir is not None else "off",
            **generator_kwargs,
        )
    latest = {}

    def generate():
        # Afresh per presentation: the generator is deterministic.
        latest["log"] = LogGenerator(
            system, scale=scale, seed=seed, incident_scale=incident_scale,
            **generator_kwargs,
        ).generate()
        return latest["log"].records

    run = dict(
        threshold=threshold, backpressure=backpressure, parallel=parallel,
        state_dir=state_dir, state_token=token, predict=predict,
        store_dir=store_dir,
    )
    if faults is not None or restart_budget is not None:
        from .resilience.supervisor import supervise

        result = supervise(
            generate, system, faults=faults,
            restart_budget=(
                DEFAULT_RESTART_BUDGET if restart_budget is None
                else restart_budget
            ),
            checkpoint_every=(
                DEFAULT_CHECKPOINT_EVERY if checkpoint_every is None
                else checkpoint_every
            ),
            **run,
        )
        if not result.degraded:
            result.generated = latest["log"]
        return result
    checkpointer = (
        CheckpointManager(every=checkpoint_every)
        if checkpoint_every is not None else None
    )
    records = generate()
    return run_stream(
        records, system, generated=latest["log"], checkpointer=checkpointer,
        **run,
    )


def run_all(
    scale: float = 1e-4,
    seed: int = 2007,
    threshold: float = DEFAULT_THRESHOLD,
    faults=None,
    restart_budget: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    backpressure: Optional[BackpressureConfig] = None,
    parallel: Optional[ParallelConfig] = None,
    state_dir: Optional[str] = None,
    predict=None,
    store_dir: Optional[str] = None,
    **generator_kwargs,
) -> Dict[str, PipelineResult]:
    """Run the pipeline for all five machines (Table 2's full study).

    With ``faults`` or ``restart_budget`` the whole study runs under
    supervision: every system completes — possibly degraded, never
    raising — and each result carries its dead-letter and restart
    accounting.  With ``backpressure``, every system runs bounded; each
    gets its own queues and accounting.  With ``parallel``, every
    system's tagging is sharded across worker processes (each system
    gets its own pool).  The knobs compose, per system, exactly as in
    :func:`run_system`.
    """
    import os

    from .systems.specs import SYSTEMS

    return {
        name: run_system(
            name, scale=scale, seed=seed, threshold=threshold,
            faults=faults, restart_budget=restart_budget,
            checkpoint_every=checkpoint_every, backpressure=backpressure,
            parallel=parallel,
            state_dir=(
                os.path.join(state_dir, name) if state_dir is not None
                else None
            ),
            predict=predict,
            store_dir=(
                os.path.join(store_dir, name) if store_dir is not None
                else None
            ),
            **generator_kwargs,
        )
        for name in SYSTEMS
    }


# ---------------------------------------------------------------------------
# The stable facade.
# ---------------------------------------------------------------------------


def run(
    system: str,
    records: Optional[Iterable[LogRecord]] = None,
    **kwargs,
) -> PipelineResult:
    """The front door: run the full pipeline for one machine.

    Without ``records``, a calibrated synthetic log is generated first
    (all :func:`run_system` keywords apply: ``scale``, ``seed``,
    ``faults``, ``restart_budget``, ``backpressure``, ``parallel``, ...).
    With ``records``, the stream is consumed directly (all
    :func:`run_stream` keywords apply: ``dead_letters``,
    ``checkpointer``/``resume_from``, ``backpressure``, ``parallel``,
    ...).

    Example::

        from repro import api
        result = api.run("spirit", scale=1e-4, seed=42)
        print(result.summary())
    """
    if records is None:
        return run_system(system, **kwargs)
    return run_stream(records, system, **kwargs)


def iter_alerts(
    records: Iterable[LogRecord],
    system: str,
    workers: int = 0,
    batch_size: int = 1024,
    dead_letters: Optional[DeadLetterQueue] = None,
) -> Iterator[Alert]:
    """Lazily tag a record stream, yielding alerts in stream order.

    The tagging-only subset of the pipeline: no volume statistics, no
    spatio-temporal filter — just the Section 3.2 expert ruleset applied
    to every record.  With ``workers`` > 0, tagging shards across that
    many processes (batches of ``batch_size``) and the alert order is
    still the stream order.  ``dead_letters`` quarantines records that
    crash the rules engine instead of raising.
    """
    if workers:
        from .parallel.sharded import ShardedTagger

        config = ParallelConfig(workers=workers, batch_size=batch_size)
        with ShardedTagger(system, config) as sharded:
            yield from sharded.tag_stream(records, dead_letters=dead_letters)
        return
    tagger = RulesetHandle(system).tagger()
    yield from tagger.tag_stream(records, dead_letters=dead_letters)


def tag_lines(
    lines: Iterable[str],
    system: str,
    year: int = 2005,
    workers: int = 0,
) -> List[Alert]:
    """Parse native-format log lines and tag them with the expert rules.

    ``lines`` is any iterable of strings in the machine's on-disk format
    (what :mod:`repro.logio` writes and the five real machines emit);
    blank lines are skipped, damaged lines parse tolerantly as corrupted
    records rather than raising.  ``year`` is the first stamp's year (BSD
    syslog carries none); the stream moves on at New Year as a file read
    does.  Returns the tagged alerts in input order.

    Example::

        from repro import api
        alerts = api.tag_lines(open("liberty.log"), "liberty")
    """
    from .logmodel.dialects import parse_lines

    records = parse_lines(lines, system, year)
    return list(iter_alerts(records, system, workers=workers))


def serve(config=None, **config_kwargs) -> Dict[str, dict]:
    """Run the multi-tenant ingest service until stopped; return the
    final per-tenant report.

    Pass a ready :class:`~repro.service.config.ServiceConfig`, or its
    keyword fields directly (``tcp_port=5140``, ``max_buffer=4096``,
    ...).  Blocks inside ``asyncio.run`` until SIGTERM/SIGINT, drains
    every tenant, and returns the same report mapping the ``serve`` CLI
    command prints: tenant id -> accounting row, plus the ``"_service"``
    totals row.
    """
    import asyncio

    from .service import IngestService, ServiceConfig

    if config is None:
        config = ServiceConfig(**config_kwargs)
    elif config_kwargs:
        raise TypeError("pass either a ServiceConfig or keyword fields, "
                        "not both")

    async def _run() -> Dict[str, dict]:
        service = IngestService(config)
        await service.start()
        await service.run_until_stopped()
        return service.final_report()

    return asyncio.run(_run())
