#!/usr/bin/env python
"""CI overload regression: bounded memory under a 10x burst, enforced.

Runs a scaled five-system study unbounded (the accounting baseline) and
bounded under a 10x burst from an unpausable source — once per tag seam,
in process and through a two-worker pool, and once supervised through a
crash at the stream's midpoint — with the process's address space
hard-capped via ``resource.setrlimit``.  The cap is generous
(numpy and the interpreter need real room); the point is that a *runaway
queue* would blow through it and the job would die, while the bounded
pipeline must stay comfortably inside.

Failure conditions (any -> exit 1):

* a queue's peak occupancy exceeds its configured capacity;
* a tagged alert is silently dropped: a ``tagged-alert`` shed count, or a
  spill total that does not match the dead-letter queue's
  ``shed-overload`` accounting;
* record conservation breaks: admitted + shed + spilled != the unbounded
  run's message count;
* the overload metrics fail to appear in ``PipelineResult.summary()``;
* the two tag seams disagree on the offered/shed/spilled-by-class counts
  (they share one pump, so they must choose the same losses);
* the supervised row's offered/shed/spilled-by-class counts differ from
  the uncrashed row's (the tallies ride the checkpoint, so a resumed run
  counts the suffix after it once);
* records offered plus records quarantined as invalid is not the number
  of records presented.

Usage: PYTHONPATH=src python scripts/overload_regression.py [--scale S]
"""

from __future__ import annotations

import argparse
import sys

ADDRESS_SPACE_CAP = 4 * 1024**3  # 4 GiB: generous, but fatal to a leak


def cap_address_space() -> bool:
    try:
        import resource
    except ImportError:  # non-POSIX platform: run uncapped
        return False
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY \
        else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=2e-5)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--max-buffer", type=int, default=512)
    args = parser.parse_args()

    if cap_address_space():
        print(f"address-space cap: {ADDRESS_SPACE_CAP / 1024**3:.1f} GiB")
    else:
        print("address-space cap: unavailable on this platform")

    from repro import api
    from repro.parallel.config import ParallelConfig
    from repro.resilience.backpressure import BackpressureConfig
    from repro.resilience.deadletter import (
        REASON_INVALID_RECORD,
        REASON_SHED_OVERLOAD,
    )
    from repro.resilience.faults import FaultConfig
    from repro.resilience.shedding import CLASS_ALERT
    from repro.simulation.generator import LogGenerator
    from repro.systems.specs import SYSTEMS

    failures = []
    rows = (
        ("bounded", {}),
        ("bounded-sharded", {"parallel": ParallelConfig(workers=2)}),
        ("bounded-supervised", None),  # crash_only at the midpoint
    )
    config = BackpressureConfig.burst(
        factor=10.0, service_batch=32, max_buffer=args.max_buffer,
    )
    for system in sorted(SYSTEMS):
        scale = args.scale * (100 if system == "bgl" else 1)
        baseline = api.run_system(system, scale=scale, seed=args.seed)
        presented = sum(1 for _ in LogGenerator(
            system, scale=scale, seed=args.seed,
        ).generate().records)
        by_class = {}
        for row, options in rows:
            label = f"{system}/{row}"
            if options is None:
                options = dict(
                    faults=FaultConfig.crash_only(at=presented // 2),
                    restart_budget=1, checkpoint_every=presented // 10,
                )
            result = api.run_system(
                system, scale=scale, seed=args.seed, backpressure=config,
                **options,
            )
            report = result.overload
            by_class[row] = (
                report.offered_by_class, report.shed_by_class,
                report.spilled_by_class,
            )
            if row == "bounded-supervised" and result.restarts != 1:
                failures.append(
                    f"{label}: {result.restarts} restarts, expected 1"
                )
            invalid = result.dead_letters.by_reason.get(
                REASON_INVALID_RECORD, 0
            )
            offered = sum(report.offered_by_class.values())
            if offered + invalid != presented:
                failures.append(
                    f"{label}: {offered} offered + {invalid} invalid != "
                    f"{presented} records presented"
                )

            for name, peak in report.queue_peaks.items():
                bound = report.queue_capacities[name]
                if peak > bound:
                    failures.append(
                        f"{label}: queue {name} peaked at {peak} > bound {bound}"
                    )
            if report.shed_by_class.get(CLASS_ALERT):
                failures.append(
                    f"{label}: {report.shed_by_class[CLASS_ALERT]} tagged "
                    "alerts silently shed"
                )
            spilled_in_dlq = result.dead_letters.by_reason.get(
                REASON_SHED_OVERLOAD, 0
            )
            if report.total_spilled != spilled_in_dlq:
                failures.append(
                    f"{label}: {report.total_spilled} spills but only "
                    f"{spilled_in_dlq} accounted in the dead-letter queue"
                )
            accounted = (
                result.message_count + report.total_shed + report.total_spilled
            )
            if accounted != baseline.message_count:
                failures.append(
                    f"{label}: conservation broken — {accounted} accounted vs "
                    f"{baseline.message_count} generated"
                )
            if "queues (peak)" not in result.summary():
                failures.append(f"{label}: overload metrics missing in summary()")

            peaks = ", ".join(
                f"{name} {peak}/{report.queue_capacities[name]}"
                for name, peak in sorted(report.queue_peaks.items())
            )
            print(
                f"{label:>30}: {result.message_count:,} admitted, "
                f"{report.total_shed:,} shed, {report.total_spilled:,} spilled "
                f"(of {baseline.message_count:,}); peaks: {peaks}"
            )
        for row in ("bounded-sharded", "bounded-supervised"):
            if by_class[row] != by_class["bounded"]:
                failures.append(
                    f"{system}: {row} disagrees with bounded on "
                    f"offered/shed/spilled by class — {by_class}"
                )

    if failures:
        print("\nOVERLOAD REGRESSION FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall overload invariants held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
