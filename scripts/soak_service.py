#!/usr/bin/env python
"""Soak the multi-tenant ingest service: faults, churn, bursts — and
prove zero silent alert loss with exact conservation accounting.

Drives a real :class:`~repro.service.IngestService` over loopback TCP
with many concurrent tenants spread across all five paper dialects,
while injecting every failure mode the service claims to survive:

* **crashy** tenants whose workers crash on a schedule (absorbed by the
  restart budget);
* **doomed** tenants that crash on *every* record and must end up
  quarantined — with every subsequent arrival still accounted;
* **bursty** tenants that send 10x-sized bursts at 1/10 frequency;
* **churny** tenants that reconnect for every chunk (connection churn);
* **ragged** tenants whose bytes leave in 1-3,000-byte slices cut at
  arbitrary offsets — inside a line, inside an envelope — with one
  70 kB line in the middle of every connection's first write: the
  listener must frame the slices back into the lines that were sent and
  account the over-long one once (truncated, a corrupted record of its
  tenant) without eating the lines behind it;
* **lossy** tenants whose lines first pass through the simulated
  :class:`UdpSyslogChannel` at the sender, so wire drops are attributed
  there and end-to-end accounting stays exact;
* one clean **control** tenant per dialect, whose alert stream must
  match a serial :class:`AlertPath` run exactly — the isolation proof.

The whole process runs under an RLIMIT_AS address-space cap: a runaway
queue would kill the job.

Failure conditions (any -> exit 1):

* any tenant's counters fail the partition invariant
  ``received == shed + refused + processed``;
* any non-lossy tenant's ``received`` != lines sent (TCP is lossless;
  anything else means the service lost a record without accounting);
* tagged-alert conservation breaks anywhere:
  ``expected tagged == reported + duplicate sheds + tagged refusals +
  tagged in-path dead letters``;
* anything was shed under the ``tagged-alert`` class (the silent-loss
  class that must never be shed);
* a control tenant shed, refused, crashed, or reported an alert count
  different from the serial baseline;
* the service saw a different number of wire lines than were sent;
* a doomed tenant failed to quarantine, or no crash/burst/churn/ragged
  write was actually exercised (the soak must prove what it claims);
* any queue's peak occupancy exceeded its capacity.

Usage::

    PYTHONPATH=src python scripts/soak_service.py                # full: 100 tenants
    PYTHONPATH=src python scripts/soak_service.py --tenants 10 --seconds 20
"""

from __future__ import annotations

import argparse
import asyncio
import os
import random
import sys
import tempfile
import time

ADDRESS_SPACE_CAP = 4 * 1024**3  # generous, but fatal to a runaway queue

IN_PATH_REASONS = ("invalid-record", "tagger-error", "out-of-order")


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


class TenantSpec:
    """One soak tenant: identity, roles, workload, and expectations."""

    def __init__(self, index: int, system: str, roles: frozenset):
        self.index = index
        self.system = system
        self.roles = roles
        self.tenant_id = f"t{index:03d}-{system}" + (
            "-" + "-".join(sorted(roles)) if roles else ""
        )
        self.lines = []           # wire lines that leave the sender
        self.expected_tagged = 0  # tagged records among self.lines
        self.simulated_drops = 0  # sender-side UdpSyslogChannel drops
        self.sent = 0
        self.connections = 0


def build_specs(n_tenants: int, seed: int):
    from repro.systems.specs import SYSTEMS

    systems = sorted(SYSTEMS)
    specs = []
    for i in range(n_tenants):
        system = systems[i % len(systems)]
        if i < len(systems):
            roles = frozenset({"control"})
        else:
            roles = set()
            if i % 7 == 0:
                roles.add("crashy")
            if i % 13 == 6:
                roles.add("doomed")
                roles.discard("crashy")
            if i % 4 == 1:
                roles.add("burst")
            if i % 6 == 2:
                roles.add("lossy")
            if i % 3 == 0:
                roles.add("churn")
            if i % 5 == 3:
                roles.add("ragged")
            roles = frozenset(roles)
        specs.append(TenantSpec(i, system, roles))
    return specs


def prepare_workloads(specs, scale: float, seed: int):
    """Render, channel-filter, and pre-classify every tenant's stream.

    Expectations are computed on the *parsed* form of each wire line —
    exactly what the service will see after its own tolerant parse — so
    both the tagged-alert conservation check and the control-tenant
    serial baseline compare bit-for-bit, not approximately.

    Returns per-dialect ``(native_lines, parsed_records)``.
    """
    import numpy as np

    from repro.logio.writer import renderer_for
    from repro.core.rules import get_ruleset
    from repro.core.tagging import Tagger
    from repro.logmodel.clock import roll_years
    from repro.logmodel.dialects import DIALECTS
    from repro.service.router import format_envelope
    from repro.simulation.generator import generate_log
    from repro.simulation.transport import UdpSyslogChannel

    # Per dialect, computed once and shared by its tenants: the generated
    # records, their wire lines, their service-side parsed form, and
    # whether any rule tags that parsed form.
    dialects = {}
    for system in {s.system for s in specs}:
        records = list(generate_log(system, scale=scale, seed=seed).records)
        render = renderer_for(system)
        tagger = Tagger(get_ruleset(system))
        lines = [render(r) for r in records]
        # A tenant parses its lines as one stream (the year moves on at
        # New Year), so the expectation does too.
        parsed = list(roll_years(lines, DIALECTS[system].parse, 2005))
        tagged = [tagger.match(p) is not None for p in parsed]
        index_of = {id(r): i for i, r in enumerate(records)}
        dialects[system] = (records, lines, parsed, tagged, index_of)

    for spec in specs:
        records, lines, parsed, tagged, index_of = dialects[spec.system]
        if "lossy" in spec.roles:
            channel = UdpSyslogChannel(
                rng=np.random.default_rng(seed + spec.index),
                base_loss=0.002, congestion_loss=0.05,
            )
            indices = [
                index_of[id(r)] for r in channel.transmit(records)
            ]
            spec.simulated_drops = channel.dropped
        else:
            indices = range(len(records))
        for i in indices:
            spec.expected_tagged += tagged[i]
            spec.lines.append(
                format_envelope(spec.tenant_id, spec.system, lines[i])
            )
    return {
        system: parsed
        for system, (_, _, parsed, _, _) in dialects.items()
    }


def serial_baselines(parsed_streams):
    """Alert counts of an uninterrupted serial path run over the parsed
    wire records per dialect — what every control tenant must reproduce
    exactly."""
    from repro.engine.path import AlertPath
    from repro.resilience.deadletter import DeadLetterQueue

    baselines = {}
    for system, records in parsed_streams.items():
        path = AlertPath(system, dead_letters=DeadLetterQueue(len(records)))
        for record in records:
            if path.admit(record):
                path.process(record)
        baselines[system] = (
            len(path.sink.raw_alerts), len(path.sink.filtered_alerts),
        )
    return baselines


#: A line longer than the listener's 64 KiB limit, sent once per
#: connection by the ragged tenants.
OVER_LONG_LINE_BYTES = 70_000


async def sender(service, spec, pace: float, seed: int):
    """Stream one tenant's lines over TCP with its roles' behaviors."""
    chunk = 200
    burst_every = 10
    writer = None
    ragged = "ragged" in spec.roles
    rng = random.Random(seed + spec.index)
    over_long_due = False

    async def connect():
        nonlocal writer, over_long_due
        _, writer = await asyncio.open_connection(
            "127.0.0.1", service.tcp_port
        )
        spec.connections += 1
        over_long_due = ragged

    await connect()
    i, chunk_no = 0, 0
    while i < len(spec.lines):
        if "burst" in spec.roles:
            # Quiet most of the time, then a 10x burst.
            size = chunk * 10 if chunk_no % burst_every == 0 else chunk // 10
        else:
            size = chunk
        batch = spec.lines[i:i + max(1, size)]
        i += len(batch)
        chunk_no += 1
        if over_long_due:
            over_long_due = False
            head = f"@{spec.tenant_id}:{spec.system} "
            batch = list(batch)
            batch.insert(
                len(batch) // 2,
                head + "x" * (OVER_LONG_LINE_BYTES - len(head)),
            )
        data = ("\n".join(batch) + "\n").encode()
        at = 0
        while at < len(data):
            size = rng.randint(1, 3000) if ragged else len(data)
            writer.write(data[at:at + size])
            await writer.drain()
            at += size
            if ragged:
                await asyncio.sleep(0)  # let the listener see the cut
        spec.sent += len(batch)
        if "churn" in spec.roles:
            writer.close()
            await writer.wait_closed()
            await connect()
        if pace > 0:
            await asyncio.sleep(pace)
    writer.close()
    await writer.wait_closed()


def make_fault_hook(specs):
    """Deterministic crash schedules, keyed by tenant id."""
    crash_every = {}
    for spec in specs:
        if "doomed" in spec.roles:
            crash_every[spec.tenant_id] = 1
        elif "crashy" in spec.roles:
            crash_every[spec.tenant_id] = 97
    seen = {}

    def hook(tenant_id, record):
        every = crash_every.get(tenant_id)
        if every is None:
            return
        seen[tenant_id] = seen.get(tenant_id, 0) + 1
        if seen[tenant_id] % every == 0:
            raise RuntimeError(f"soak-injected crash for {tenant_id}")

    return hook


def tagged_in_path_letters(tenant):
    """Tagged records among the tenant's in-path dead letters (invalid /
    tagger-error / out-of-order) — countable exactly because the soak
    sizes the dead-letter queue to retain everything."""
    count = 0
    for letter in tenant.dead_letters:
        if letter.reason in IN_PATH_REASONS:
            try:
                if tenant.path.tagger.match(letter.record) is not None:
                    count += 1
            except Exception:
                pass
    return count


async def run_soak(args) -> int:
    from repro.service import IngestService, ServiceConfig

    specs = build_specs(args.tenants, args.seed)
    print(f"preparing workloads: {args.tenants} tenants, "
          f"{len({s.system for s in specs})} dialects, scale {args.scale:g}")
    parsed_streams = prepare_workloads(specs, args.scale, args.seed)
    baselines = serial_baselines(parsed_streams)
    total_lines = sum(len(s.lines) for s in specs)
    print(f"{total_lines:,} wire lines staged "
          f"({sum(s.simulated_drops for s in specs):,} dropped in "
          "simulated sender channels)")

    config = ServiceConfig(
        fault_hook=make_fault_hook(specs),
        restart_budget=5,
        breaker_reset=0.2,
        max_buffer=2048,
        dead_letter_capacity=max(100_000, total_lines),
        alert_tail=8,
        idle_ttl=3600.0,           # no eviction: every tenant inspectable
        housekeeping_interval=0.1,
        drain_timeout=120.0,
    )
    service = IngestService(config)
    await service.start()
    print(f"service up: tcp={service.tcp_port} stats={service.stats_port}")

    # Pace the offered load to a sustainable aggregate rate (default
    # ~5k lines/s) so steady-state pressure stays NORMAL and the control
    # tenants isolate *fault* effects, not plain overload; the bursty
    # tenants still spike 10x above their own average.
    seconds = args.seconds if args.seconds > 0 else total_lines / 5000.0
    n_chunks = max(1, total_lines // (len(specs) * 200))
    pace = seconds / n_chunks
    started = time.monotonic()
    await asyncio.gather(
        *(sender(service, s, pace, args.seed) for s in specs)
    )
    send_elapsed = time.monotonic() - started
    await service.drain()
    print(f"sent in {send_elapsed:.1f}s; drained {service.state!r} "
          f"in {time.monotonic() - started - send_elapsed:.1f}s")

    return check(service, specs, baselines)


def check(service, specs, baselines) -> int:
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    tenants = service.router.tenants
    expect(len(tenants) == len(specs),
           f"expected {len(specs)} live tenants, found {len(tenants)}")

    crashes = quarantined = churned = 0
    for spec in specs:
        tenant = tenants.get(spec.tenant_id)
        if tenant is None:
            failures.append(f"{spec.tenant_id}: missing from service")
            continue
        c = tenant.counters
        q = len(tenant.queue)
        crashes += c.crashes
        quarantined += 1 if tenant.quarantined else 0
        churned += spec.connections

        expect(c.conserves(q),
               f"{spec.tenant_id}: partition broken "
               f"({c.received} != {c.accounted(q)})")
        expect(q == 0, f"{spec.tenant_id}: {q} records undrained")
        expect(c.received == spec.sent,
               f"{spec.tenant_id}: sent {spec.sent} but received "
               f"{c.received} (TCP must be lossless)")
        expect(tenant.queue.peak_occupancy <= tenant.queue.capacity,
               f"{spec.tenant_id}: queue peak over capacity")

        shed_tagged = c.shed_by_class.get("tagged-alert", 0)
        expect(shed_tagged == 0,
               f"{spec.tenant_id}: {shed_tagged} tagged alerts shed")
        accounted_tagged = (
            c.alerts_raw
            + c.shed_by_class.get("duplicate-alert", 0)
            + c.refused_tagged
            + tagged_in_path_letters(tenant)
        )
        expect(accounted_tagged == spec.expected_tagged,
               f"{spec.tenant_id}: tagged conservation broken "
               f"(expected {spec.expected_tagged}, "
               f"accounted {accounted_tagged})")

        if "control" in spec.roles:
            raw, filtered = baselines[spec.system]
            expect(c.shed == 0 and c.refused == 0 and c.crashes == 0,
                   f"{spec.tenant_id}: control tenant lost records "
                   f"(shed={c.shed} refused={c.refused} "
                   f"crashes={c.crashes})")
            expect(c.alerts_raw == raw and c.alerts_filtered == filtered,
                   f"{spec.tenant_id}: control alerts {c.alerts_raw}/"
                   f"{c.alerts_filtered} != serial baseline "
                   f"{raw}/{filtered}")
        if "doomed" in spec.roles:
            expect(tenant.quarantined,
                   f"{spec.tenant_id}: doomed tenant not quarantined")
            expect(tenant.final_dead_letters is not None,
                   f"{spec.tenant_id}: no final accounting snapshot")

    # The soak must actually have exercised its failure modes.
    doomed = sum(1 for s in specs if "doomed" in s.roles)
    expect(crashes > 0, "no worker crashes were injected")
    expect(quarantined >= doomed,
           f"{quarantined} quarantined < {doomed} doomed tenants")
    expect(churned > len(specs), "no connection churn happened")
    expect(any("ragged" in s.roles for s in specs),
           "no tenant wrote ragged slices")
    sent = sum(s.sent for s in specs)
    expect(service.router.lines_seen == sent,
           f"{sent} wire lines sent but {service.router.lines_seen} seen")
    expect(service.router.unroutable.quarantined == 0,
           "well-formed soak traffic was marked unroutable")

    total = {
        "received": sum(t.counters.received for t in tenants.values()),
        "processed": sum(t.counters.processed for t in tenants.values()),
        "shed": sum(t.counters.shed for t in tenants.values()),
        "refused": sum(t.counters.refused for t in tenants.values()),
        "alerts": sum(t.counters.alerts_raw for t in tenants.values()),
        "crashes": crashes,
        "quarantined": quarantined,
    }
    print(f"\ntotals: {total}")
    print(f"connections opened: {churned:,} "
          f"(tcp accepts: {service.tcp.connections:,})")

    if failures:
        print(f"\nFAIL: {len(failures)} violations")
        for failure in failures[:40]:
            print(f"  - {failure}")
        return 1
    print(f"\nOK: {len(specs)} tenants conserved every record; "
          "zero silent tagged-alert loss; controls byte-match serial; "
          f"{quarantined} quarantines absorbed")
    return 0


def run_kill_service(args) -> int:
    """The ``--kill-service`` phase: a mini serve session is SIGKILLed
    between quiesced bursts and must resurrect from its ``--state-dir``
    byte-identical (delegates to the chaos harness's reusable check)."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import chaos_crash

    print(f"\nkill-service phase: {args.kill_service_kills} SIGKILLs "
          "over a durable serve session")
    with tempfile.TemporaryDirectory(prefix="soak-kill-service-") as tmp:
        failures = chaos_crash.kill_service_check(
            tenants=min(args.tenants, 10), scale=args.scale,
            seed=args.seed, kills=args.kill_service_kills, state_root=tmp,
        )
    if failures:
        print(f"kill-service FAIL: {len(failures)} violations")
        for failure in failures[:20]:
            print(f"  - {failure}")
        return 1
    print("kill-service OK: resurrection byte-identical")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--tenants", type=int, default=100)
    parser.add_argument("--scale", type=float, default=2e-5,
                        help="generated log scale per dialect")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="pace sending over about this long (0 = "
                             "auto: ~5k lines/s aggregate)")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--kill-service", action="store_true",
                        help="also SIGKILL/resurrect a durable serve "
                             "session and require byte-identical recovery")
    parser.add_argument("--kill-service-kills", type=int, default=2)
    args = parser.parse_args()

    if cap_address_space():
        print(f"address-space cap: {ADDRESS_SPACE_CAP / 1024**3:.1f} GiB")
    else:
        print("address-space cap: unavailable on this platform")

    rc = asyncio.run(run_soak(args))
    if rc == 0 and args.kill_service:
        rc = run_kill_service(args)
    return rc


if __name__ == "__main__":
    sys.exit(main())
