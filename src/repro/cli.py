"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflows a downstream adopter needs:

* ``generate`` — write a synthetic machine log in its native format;
* ``analyze``  — run the tagging/filtering pipeline over a log file;
* ``study``    — the whole paper: all five systems, Tables 1-6;
* ``report``   — replay tables and figures from a ``--store-dir`` alert
  store without rerunning any pipeline;
* ``anonymize`` — pseudonymize a log for release (Section 3.2.1);
* ``mine``     — mine frequent message templates (Vaarandi-style) and
  propose candidate alert rules.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import api
from .analysis.patterns import mine_templates, suggest_rules, template_coverage
from .engine.capabilities import capability_lines
from .parallel.config import ParallelConfig
from .logio.reader import read_log
from .logio.writer import write_log
from .logmodel.anonymize import Pseudonymizer
from .reporting import tables
from .resilience.backpressure import BackpressureConfig
from .resilience.deadletter import DeadLetterQueue
from .resilience.faults import FaultConfig
from .resilience.shedding import SHED_DECISIONS
from .reporting.format import render_table
from .simulation.generator import generate_log
from .systems.specs import SYSTEMS

SYSTEM_CHOICES = sorted(SYSTEMS)


def _at_least_one(text: str) -> int:
    """An argparse type for a record count: a bad value exits 2 with a
    one-line ``error:`` instead of failing deep inside the run."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common_generation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("system", choices=SYSTEM_CHOICES)
    parser.add_argument("--scale", type=float, default=1e-4,
                        help="fraction of the paper's message volume")
    parser.add_argument("--seed", type=int, default=2007)


def cmd_generate(args: argparse.Namespace) -> int:
    generated = generate_log(args.system, scale=args.scale, seed=args.seed)
    count = write_log(
        generated.records, args.out, args.system, compress=args.gzip,
    )
    print(f"wrote {count:,} lines to {args.out}")
    return 0


def _parallel_config(args: argparse.Namespace) -> "ParallelConfig | None":
    """The ParallelConfig implied by --workers/--batch-size, if any."""
    if not args.workers:
        return None
    batch_size = 1024 if args.batch_size is None else args.batch_size
    return ParallelConfig(workers=args.workers, batch_size=batch_size)


def _batch_size_ignored(args: argparse.Namespace) -> bool:
    """True (after saying so) when --batch-size comes without --workers:
    nothing is batched on a serial run, so the flag would be dropped."""
    if args.workers or args.batch_size is None:
        return False
    print("error: --batch-size only takes effect on a sharded run; "
          "pass --workers (or drop it)", file=sys.stderr)
    return True


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=0,
                        help="shard tagging across this many worker "
                             "processes (0 = serial); the filter stays "
                             "sequential and output is identical")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="records per batch shipped to a worker "
                             "(requires --workers; default 1024)")


def cmd_analyze(args: argparse.Namespace) -> int:
    if _batch_size_ignored(args):
        return 2
    records = read_log(args.path, args.system, year=args.year)
    dead_letters = DeadLetterQueue() if args.quarantine else None
    result = api.run_stream(records, args.system,
                                 threshold=args.threshold,
                                 dead_letters=dead_letters,
                                 parallel=_parallel_config(args))
    if dead_letters is not None and dead_letters.quarantined:
        print(f"# quarantined: {dead_letters.summary()}", file=sys.stderr)
    if args.full:
        from .reporting.report import system_report

        print(system_report(result))
        return 0
    print(result.summary())
    print()
    rows = [
        (category, f"{raw:,}", f"{filtered:,}")
        for category, (raw, filtered) in sorted(
            result.category_counts().items(), key=lambda kv: -kv[1][0]
        )
    ]
    if rows:
        print(render_table(("Category", "Raw", "Filtered"), rows,
                           title="Alert categories"))
    else:
        print("no alerts tagged")
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    if _batch_size_ignored(args):
        return 2
    faults = None
    if args.faults:
        fault_seed = args.seed if args.fault_seed is None else args.fault_seed
        faults = FaultConfig.defaults(seed=fault_seed)
    backpressure = None
    if args.max_buffer is not None:
        backpressure = BackpressureConfig(max_buffer=args.max_buffer)
    parallel = _parallel_config(args)
    supervised = faults is not None or args.restart_budget is not None
    results = {}
    for system in SYSTEM_CHOICES:
        scale = args.scale * (100 if system == "bgl" else 1)
        result = api.run_system(
            system, scale=scale, seed=args.seed, faults=faults,
            restart_budget=args.restart_budget,
            checkpoint_every=args.checkpoint_every,
            backpressure=backpressure,
            parallel=parallel,
            state_dir=(
                f"{args.state_dir}/{system}" if args.state_dir else None
            ),
            store_dir=(
                os.path.join(args.store_dir, system)
                if args.store_dir else None
            ),
            predict=args.predict or None,
        )
        results[system] = result
        line = (f"# {system}: {result.message_count:,} messages, "
                f"{result.raw_alert_count:,} alerts")
        store = getattr(result.checkpoints, "store", None)
        if store is not None and store.status.degraded:
            line += f" [DURABILITY DEGRADED: {store.status.reason}]"
        if supervised:
            line += (f" [restarts: {result.restarts}, "
                     f"dead letters: {result.dead_letter_count}"
                     f"{', DEGRADED' if result.degraded else ''}]")
        if result.overload is not None:
            acct = result.overload
            line += (f" [shed: {acct.total_shed}, "
                     f"spilled: {acct.total_spilled}"
                     f"{', OVERLOAD-DEGRADED' if acct.degraded else ''}]")
        if result.shard_stats is not None:
            shards = result.shard_stats
            line += (f" [workers: {shards.workers}, "
                     f"batches: {shards.batches}"
                     + (f", crashes: {shards.worker_crashes}, "
                        f"retried: {shards.batches_retried}"
                        if shards.worker_crashes else "") + "]")
        print(line, file=sys.stderr)
        if result.prediction is not None:
            for pred_line in result.prediction.summary_lines():
                print(f"#   {pred_line}", file=sys.stderr)
    print(tables.all_tables(results))
    if args.store_dir:
        print(f"# alert stores written under {args.store_dir}; replay "
              f"with: repro report {args.store_dir}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .reporting import figures
    from .store import StoreError, is_store_dir, load_result

    root = args.store_dir
    if not os.path.isdir(root):
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    if is_store_dir(root):
        candidates = [root]
    else:
        # Study layout: one store per system subdirectory.
        candidates = [
            path
            for name in sorted(os.listdir(root))
            if is_store_dir(path := os.path.join(root, name))
        ]
    if not candidates:
        print(f"error: no alert store under {root} (expected a MANIFEST "
              "at the top level or in system subdirectories; write one "
              "with `repro study --store-dir ...`)", file=sys.stderr)
        return 2
    results = {}
    trouble = False
    for path in candidates:
        try:
            result = load_result(path)
        except StoreError as exc:
            print(f"# {path}: unreadable store: {exc}", file=sys.stderr)
            trouble = True
            continue
        results[result.system] = result
        print(f"# {result.system}: {result.message_count:,} messages, "
              f"{result.raw_alert_count:,} alerts (replayed from {path})",
              file=sys.stderr)
    if not results:
        return 2
    print(tables.all_tables(results))
    figure_text = figures.all_figures(results)
    if figure_text:
        print()
        print(figure_text)
    # Scans record partitions they had to drop (CRC mismatch, torn
    # frame); surface those after the render they degraded.
    for system, result in results.items():
        issues = result.store.degraded
        if issues:
            trouble = True
            print(f"# {system}: {len(issues)} degraded partitions "
                  f"(data dropped): {'; '.join(issues[:3])}",
                  file=sys.stderr)
    return 1 if trouble else 0


def cmd_anonymize(args: argparse.Namespace) -> int:
    scrubber = Pseudonymizer(key=args.key)
    records = read_log(args.path, args.system, year=args.year)
    count = write_log(
        scrubber.scrub_stream(records), args.out, args.system,
        compress=args.gzip,
    )
    print(f"wrote {count:,} anonymized lines to {args.out}")
    residuals = scrubber.residual_risk()
    if residuals:
        print(f"WARNING: {len(residuals)} residual sensitive-looking "
              "strings survived scrubbing; review before release:")
        for item in residuals[:10]:
            print(f"  {item}")
        return 1
    print("no residual sensitive-looking strings detected "
          "(not a guarantee; audit before release)")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    records = list(read_log(args.path, args.system, year=args.year))
    bodies = [r.full_text() for r in records]
    templates = mine_templates(bodies, min_support=args.min_support)
    coverage = template_coverage(templates, bodies)
    print(f"{len(templates)} templates cover {coverage:.1%} of "
          f"{len(bodies):,} messages")
    for template in templates[: args.top]:
        print(f"  [{template.support:>8,}] {template.pattern()[:100]}")
    rules = suggest_rules(templates)
    if rules:
        print()
        print("candidate alert rules (review before adopting):")
        for rule in rules[: args.top]:
            print(f"  /{rule[:100]}/")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .service import IngestService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        tcp_port=args.tcp_port,
        udp_port=args.udp_port,
        stats_port=args.stats_port,
        enable_udp=not args.no_udp,
        year=args.year,
        threshold=args.threshold,
        max_buffer=args.max_buffer,
        shed_policy=args.shed_policy,
        restart_budget=args.restart_budget,
        idle_ttl=args.idle_ttl,
        drain_timeout=args.drain_timeout,
        state_dir=args.state_dir,
        store_dir=args.store_dir,
        checkpoint_every=args.checkpoint_every,
        predict=args.predict or None,
    )

    async def _run() -> dict:
        service = IngestService(config)
        await service.start()
        print(
            f"ingest service listening: tcp={service.tcp_port} "
            f"udp={service.udp_port or '-'} stats={service.stats_port}",
            file=sys.stderr,
        )
        print("send SIGTERM (or Ctrl-C) to drain and exit", file=sys.stderr)
        await service.run_until_stopped()
        return service.final_report()

    report = asyncio.run(_run())
    print(json.dumps(report, indent=2, default=str))
    service_row = report.get("_service", {})
    tenants = {k: v for k, v in report.items() if k != "_service"}
    broken = [
        tid for tid, row in tenants.items() if not row.get("conserves", True)
    ]
    print(
        f"drained: {len(tenants)} tenants, "
        f"{service_row.get('lines_seen', 0):,} lines seen, "
        f"{len(broken)} conservation violations",
        file=sys.stderr,
    )
    durability = service_row.get("durability") or {}
    if durability.get("degraded"):
        print(
            f"DURABILITY DEGRADED: {durability.get('reason')} "
            f"({durability.get('unpersisted_checkpoints', 0)} checkpoints / "
            f"{durability.get('unpersisted_wal_records', 0)} journal records "
            "unpersisted)",
            file=sys.stderr,
        )
    return 1 if broken else 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .service import query_stats

    response = query_stats(args.host, args.port, args.query)
    print(json.dumps(response, indent=2, default=str))
    return 1 if "error" in response else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser(
        "generate", help="write a synthetic machine log"
    )
    _add_common_generation_args(p_generate)
    p_generate.add_argument("--out", required=True)
    p_generate.add_argument("--gzip", action="store_true")
    p_generate.set_defaults(func=cmd_generate)

    p_analyze = sub.add_parser(
        "analyze", help="tag and filter alerts in a log file"
    )
    p_analyze.add_argument("path")
    p_analyze.add_argument("--system", required=True, choices=SYSTEM_CHOICES)
    p_analyze.add_argument("--year", type=int, default=2005)
    p_analyze.add_argument("--threshold", type=float, default=5.0)
    p_analyze.add_argument("--full", action="store_true",
                           help="full report: attribution, severity, "
                                "interarrival characterization")
    p_analyze.add_argument("--quarantine", action="store_true",
                           help="dead-letter unprocessable records instead "
                                "of failing on them, and report the counts")
    _add_parallel_args(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_study = sub.add_parser(
        "study", help="run all five systems and print Tables 1-6",
        epilog="execution drivers (--workers/--max-buffer compose; see "
               "repro.engine):\n  " + "\n  ".join(capability_lines()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_study.add_argument("--scale", type=float, default=1e-4)
    p_study.add_argument("--seed", type=int, default=2007)
    p_study.add_argument("--faults", action="store_true",
                         help="run under the pipeline supervisor with the "
                              "default fault-injection schedule (crashes, "
                              "stalls, reordering, duplication, truncation)")
    p_study.add_argument("--fault-seed", type=int, default=None,
                         help="seed for the fault schedule (default: --seed)")
    p_study.add_argument("--restart-budget", type=int, default=None,
                         help="max supervisor restarts per system "
                              "(default under --faults: 3); giving it "
                              "supervises the run even without --faults")
    p_study.add_argument("--checkpoint-every", type=_at_least_one, default=None,
                         help="checkpoint interval in records; an "
                              "unsupervised run still snapshots and the "
                              "result keeps the latest resume point "
                              "(default when supervised: 2000)")
    p_study.add_argument("--state-dir", default=None,
                         help="persist checkpoints under this directory "
                              "(one subdirectory per system) and "
                              "auto-resume an interrupted run: re-invoking "
                              "the same study after a crash/SIGKILL "
                              "completes byte-identical to an "
                              "uninterrupted run")
    p_study.add_argument("--max-buffer", type=int, default=None,
                         help="run bounded: cap the generate->tag queue at "
                              "this many records (backpressure + load "
                              "shedding instead of unbounded memory)")
    p_study.add_argument("--predict", action="store_true",
                         help="run the streaming correlation miner + "
                              "online predictor ensemble alongside each "
                              "system and print its warning/graph summary "
                              "(see the README's Online prediction section)")
    p_study.add_argument("--store-dir", default=None,
                         help="spill every system's alerts to a columnar "
                              "store under this directory (one "
                              "subdirectory per system); analytics stream "
                              "from disk in bounded memory and "
                              "`repro report <dir>` replays every table "
                              "and figure later without rerunning the "
                              "pipeline")
    _add_parallel_args(p_study)
    p_study.set_defaults(func=cmd_study)

    p_report = sub.add_parser(
        "report",
        help="replay tables and figures from an alert store directory",
        description="Render Tables 1-6 and the alert-only figures from "
                    "a store written by `study --store-dir` (or any "
                    "api.run_* call with store_dir=...), without "
                    "regenerating or re-analyzing any log.",
    )
    p_report.add_argument("store_dir",
                          help="a single store (MANIFEST at the top "
                               "level) or a study layout (one store per "
                               "system subdirectory)")
    p_report.set_defaults(func=cmd_report)

    p_anon = sub.add_parser(
        "anonymize", help="pseudonymize a log for release"
    )
    p_anon.add_argument("path")
    p_anon.add_argument("--system", required=True, choices=SYSTEM_CHOICES)
    p_anon.add_argument("--out", required=True)
    p_anon.add_argument("--key", default="repro")
    p_anon.add_argument("--year", type=int, default=2005)
    p_anon.add_argument("--gzip", action="store_true")
    p_anon.set_defaults(func=cmd_anonymize)

    p_mine = sub.add_parser(
        "mine", help="mine frequent message templates from a log"
    )
    p_mine.add_argument("path")
    p_mine.add_argument("--system", required=True, choices=SYSTEM_CHOICES)
    p_mine.add_argument("--year", type=int, default=2005)
    p_mine.add_argument("--min-support", type=int, default=10)
    p_mine.add_argument("--top", type=int, default=15)
    p_mine.set_defaults(func=cmd_mine)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived multi-tenant ingest service",
        epilog="wire protocol: one '@tenant:system <native line>' per "
               "TCP line or UDP datagram.\nexecution drivers:\n  "
               + "\n  ".join(capability_lines()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--tcp-port", type=int, default=0,
                         help="TCP syslog port (0 = ephemeral)")
    p_serve.add_argument("--udp-port", type=int, default=0,
                         help="UDP syslog port (0 = ephemeral)")
    p_serve.add_argument("--stats-port", type=int, default=0,
                         help="stats endpoint port (0 = ephemeral)")
    p_serve.add_argument("--no-udp", action="store_true",
                         help="disable the UDP listener")
    p_serve.add_argument("--year", type=int, default=2005,
                         help="year of a new tenant's first BSD-syslog "
                              "line; its later lines move to the next "
                              "year at New Year")
    p_serve.add_argument("--threshold", type=float, default=5.0)
    p_serve.add_argument("--max-buffer", type=int, default=1024,
                         help="per-tenant ingest queue capacity")
    p_serve.add_argument("--shed-policy", choices=sorted(SHED_DECISIONS),
                         default="priority")
    p_serve.add_argument("--restart-budget", type=int, default=3,
                         help="worker crashes tolerated per tenant before "
                              "quarantine")
    p_serve.add_argument("--idle-ttl", type=float, default=300.0,
                         help="seconds of tenant quiet before eviction "
                              "(checkpoint handoff)")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0)
    p_serve.add_argument("--state-dir", default=None,
                         help="crash-durable tenant state directory: "
                              "checkpoints and alert/dead-letter journals "
                              "persist here, and a restarted service "
                              "resumes every tenant from it")
    p_serve.add_argument("--checkpoint-every", type=_at_least_one, default=2000,
                         help="records between durable tenant snapshots")
    p_serve.add_argument("--store-dir", default=None,
                         help="tee every tenant's alerts into a columnar "
                              "store under this directory (one store per "
                              "tenant), committed at checkpoint barriers; "
                              "analytics then run out-of-core over alerts "
                              "the in-memory tail has long dropped")
    p_serve.add_argument("--predict", action="store_true",
                         help="per-tenant online prediction: every tenant "
                              "runs the streaming correlation miner + "
                              "predictor ensemble; warning counts ride the "
                              "stats endpoint and prediction state rides "
                              "tenant checkpoints")
    p_serve.set_defaults(func=cmd_serve)

    p_stats = sub.add_parser(
        "stats", help="query a running ingest service's stats endpoint"
    )
    p_stats.add_argument("--host", default="127.0.0.1")
    p_stats.add_argument("--port", type=int, required=True)
    p_stats.add_argument("query", nargs="?", default="stats",
                         help="'stats', 'health', 'tenant <id>', or "
                              "'alerts <id> [n]' (quote multi-word queries)")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
