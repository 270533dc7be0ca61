"""The running daemon: real sockets, isolation, degradation, drain.

Holds the PR's acceptance property at test scale: concurrent tenants on
real loopback transports, one of them crashing its worker on every
record, and the healthy tenants' alert streams are exactly what a serial
run produces — while every record of the sick tenant is accounted.
"""

import asyncio
import errno
import time

import pytest

from repro.core.rules import get_ruleset
from repro.engine.path import AlertPath
from repro.logio.writer import renderer_for
from repro.resilience.deadletter import DeadLetterQueue
from repro.service import IngestService, ServiceConfig, query_stats
from repro.service.listeners import MAX_LINE_BYTES
from repro.service.router import (
    TenantRouter,
    format_envelope,
    parse_native_line,
)
from repro.simulation.generator import generate_log
from repro.store import ColumnarStore, ColumnarStoreWriter

from ..conftest import SEED, SMALL_SCALE
from ..engine.test_batch_flow import POISON, PoisonTagger


def native_lines(system, n=None, tenant=None):
    render = renderer_for(system)
    records = list(
        generate_log(system, scale=SMALL_SCALE, seed=SEED).records
    )
    if n is not None:
        records = records[:n]
    if tenant is None:
        return [render(r) for r in records]
    return [format_envelope(tenant, system, render(r)) for r in records]


def quick_config(**kw):
    kw.setdefault("housekeeping_interval", 0.02)
    kw.setdefault("max_buffer", 1 << 15)
    return ServiceConfig(**kw)


async def wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() >= deadline:
            raise AssertionError("condition not met before timeout")
        await asyncio.sleep(interval)


class TestTransports:
    def test_tcp_multi_tenant_multi_dialect(self):
        """Three tenants on three dialects over one TCP connection each,
        interleaved; each gets its own isolated accounting."""
        streams = {
            "lib": ("liberty", native_lines("liberty", 150, "lib")),
            "bg": ("bgl", native_lines("bgl", 150, "bg")),
            "rs": ("redstorm", native_lines("redstorm", 150, "rs")),
        }

        async def main():
            service = IngestService(quick_config())
            await service.start()

            async def send(lines):
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", service.tcp_port
                )
                for line in lines:
                    writer.write(line.encode() + b"\n")
                await writer.drain()
                writer.close()
                await writer.wait_closed()

            await asyncio.gather(
                *(send(lines) for _, lines in streams.values())
            )
            await wait_for(lambda: all(
                t in service.router.tenants
                and service.router.tenants[t].counters.received == 150
                for t in streams
            ))
            await service.drain()
            return service

        service = asyncio.run(main())
        assert service.state == "stopped"
        report = service.final_report()
        for tenant_id, (system, _) in streams.items():
            row = report[tenant_id]
            assert row["system"] == system
            assert row["received"] == 150
            assert row["processed"] == 150
            assert row["conserves"]
        assert report["_service"]["unroutable"] == 0

    def test_udp_datagrams(self):
        lines = native_lines("liberty", 50, "udp-t")

        async def main():
            service = IngestService(quick_config())
            await service.start()
            loop = asyncio.get_running_loop()
            transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol,
                remote_addr=("127.0.0.1", service.udp_port),
            )
            for line in lines:
                transport.sendto(line.encode())
                await asyncio.sleep(0.001)  # pace below loopback buffers
            transport.close()
            await wait_for(
                lambda: "udp-t" in service.router.tenants
                and service.router.tenants["udp-t"].counters.received == 50
            )
            await service.drain()
            return service

        service = asyncio.run(main())
        row = service.final_report()["udp-t"]
        assert row["processed"] == 50
        assert row["conserves"]

    def test_unroutable_lines_are_accounted(self):
        async def main():
            service = IngestService(quick_config())
            await service.start()
            _, writer = await asyncio.open_connection(
                "127.0.0.1", service.tcp_port
            )
            writer.write(b"no envelope here\n")
            writer.write(b"@tenant-without-system junk\n")
            writer.write(b"@t:unknown-dialect payload\n")
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await wait_for(
                lambda: service.router.unroutable.quarantined == 3
            )
            await service.drain()
            return service

        service = asyncio.run(main())
        assert service.router.unroutable.quarantined == 3
        assert dict(service.router.unroutable.by_reason) == {
            "unroutable": 3
        }
        assert len(service.router.tenants) == 0


class TestHostileFraming:
    @pytest.mark.parametrize("size", [70_000, 100_000, 200_000])
    def test_over_long_line_is_one_record_and_eats_nothing(self, size):
        """REGRESSION: ``readline`` discarded a line longer than the
        limit and the handler then read the next 64 KiB of well-framed
        lines as one (12 sent, ``lines_seen 2``).  Pinned: the line is
        truncated to ``MAX_LINE_BYTES`` and is one corrupted record of
        the tenant its envelope names; every line around it arrives."""
        good = native_lines("liberty", 11, "t")
        junk = "@t:liberty " + "x" * (size - 11)
        payload = "\n".join([good[0], junk] + good[1:]).encode() + b"\n"

        async def main():
            service = IngestService(quick_config())
            await service.start()
            _, writer = await asyncio.open_connection(
                "127.0.0.1", service.tcp_port
            )
            writer.write(payload)  # one sendall
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await wait_for(lambda: service.tcp.connections_open == 0)
            await service.drain()
            return service

        service = asyncio.run(main())
        assert service.router.lines_seen == 12
        assert service.router.unroutable.quarantined == 0
        row = service.final_report()["t"]
        assert row["received"] == row["processed"] == 12
        assert row["conserves"]
        path = service.router.tenants["t"].path
        assert path.corrupted == 1
        assert path.stats_collector.stats.messages == 12
        assert path.stats_collector.stats.raw_bytes < 2 * MAX_LINE_BYTES

    def test_tagger_error_at_the_door_is_a_dead_letter_not_a_hangup(self):
        """REGRESSION: the door's classifying match was unguarded, so a
        record the rules engine raised on took the connection down with
        the rest of its buffer unread.  The verdict now rides the queue:
        the record is processed, dead-lettered ``tagger-error`` in
        stream order, and the connection lives."""
        lines = native_lines("liberty", 24)
        lines[3] = lines[3] + " " + POISON
        lines[17] = lines[17] + " " + POISON
        records = [parse_native_line(line, "liberty", 2005) for line in lines]
        wire = [format_envelope("t", "liberty", line) for line in lines]

        want = AlertPath(
            "liberty", dead_letters=DeadLetterQueue(),
            tagger=PoisonTagger(get_ruleset("liberty")),
        )
        for record in records:
            if want.admit(record):
                want.process(record)

        async def main():
            service = IngestService(quick_config())
            await service.start()
            tenant = service.router._materialize("t", "liberty")
            tenant.path.tagger = PoisonTagger(get_ruleset("liberty"))
            _, writer = await asyncio.open_connection(
                "127.0.0.1", service.tcp_port
            )
            for part in (wire[:12], wire[12:]):  # the poison 4th of 12
                writer.write(("\n".join(part) + "\n").encode())
                await writer.drain()
                await wait_for(
                    lambda: tenant.counters.processed
                    == tenant.counters.received >= len(part)
                )
                assert service.tcp.connections_open == 1
            writer.close()
            await writer.wait_closed()
            await service.drain()
            return service, tenant

        service, tenant = asyncio.run(main())
        assert service.router.lines_seen == 24
        assert tenant.counters.received == tenant.counters.processed == 24
        assert tenant.counters.conserves(0)
        assert [
            (d.record, d.reason, d.detail) for d in tenant.dead_letters
        ] == [(d.record, d.reason, d.detail) for d in want.dead_letters]
        assert dict(tenant.dead_letters.by_reason) == {"tagger-error": 2}
        assert tenant.counters.alerts_raw == len(want.sink.raw_alerts)


class TestIsolation:
    def test_crashing_tenant_does_not_delay_or_drop_others(self):
        """ACCEPTANCE: tenant "sick" crashes its worker on every record;
        tenants "well-*" still produce byte-identical serial alerts."""
        log = generate_log("liberty", scale=SMALL_SCALE, seed=SEED)
        records = list(log.records)
        render = renderer_for("liberty")

        baseline = AlertPath("liberty")
        for record in records:
            if baseline.admit(record):
                baseline.process(record)

        def hook(tenant_id, record):
            if tenant_id == "sick":
                raise RuntimeError("sick tenant crashes on everything")

        async def main():
            service = IngestService(quick_config(
                fault_hook=hook, restart_budget=2,
                alert_tail=1 << 15, breaker_threshold=10_000,
                # The log's first year: its January lines roll past it.
                year=int(log.scenario.start_date[:4]),
            ))
            await service.start()
            # Interleave: every well-tenant line bracketed by sick lines.
            for record in records:
                line = render(record)
                service.router.ingest_line(
                    format_envelope("sick", "liberty", line)
                )
                service.router.ingest_line(
                    format_envelope("well-a", "liberty", line)
                )
                service.router.ingest_line(
                    format_envelope("well-b", "liberty", line)
                )
                if len(service.router.tenants["well-a"].queue) > 512:
                    await asyncio.sleep(0)  # let workers breathe
            await service.drain()
            return service

        service = asyncio.run(main())
        tenants = service.router.tenants
        for name in ("well-a", "well-b"):
            well = tenants[name]
            assert well.counters.processed == len(records)
            assert well.counters.crashes == 0
            assert well.alert_tail == tuple(baseline.sink.raw_alerts)
            assert well.counters.conserves(0)
        sick = tenants["sick"]
        assert sick.quarantined
        assert sick.counters.processed == 0
        assert sick.counters.conserves(0)  # every record accounted
        assert sick.final_dead_letters is not None


class TestStatsEndpoint:
    def test_commands(self):
        lines = native_lines("liberty", 80, "acme")

        async def main():
            service = IngestService(quick_config())
            await service.start()
            for line in lines:
                service.router.ingest_line(line)
            await wait_for(
                lambda: service.router.tenants["acme"].counters.processed
                == 80
            )
            loop = asyncio.get_running_loop()

            def ask(command):
                return query_stats(
                    "127.0.0.1", service.stats_port, command
                )

            stats = await loop.run_in_executor(None, ask, "stats")
            health = await loop.run_in_executor(None, ask, "health")
            tenant = await loop.run_in_executor(None, ask, "tenant acme")
            alerts = await loop.run_in_executor(None, ask, "alerts acme 5")
            missing = await loop.run_in_executor(None, ask, "tenant nope")
            bogus = await loop.run_in_executor(None, ask, "frobnicate")
            bad_counts = [
                await loop.run_in_executor(None, ask, f"alerts acme {n}")
                for n in ("x", "-3", "0", "2.5")
            ]
            await service.drain()
            return stats, health, tenant, alerts, missing, bogus, bad_counts

        (stats, health, tenant, alerts, missing, bogus,
         bad_counts) = asyncio.run(main())
        assert stats["state"] == "running"
        assert "acme" in stats["tenants"]
        assert health["conserving"]
        assert tenant["received"] == 80
        assert tenant["conserves"]
        assert len(alerts["alerts"]) <= 5
        for alert in alerts["alerts"]:
            assert {"timestamp", "source", "category", "type", "body"} \
                <= set(alert)
        assert "error" in missing
        assert "error" in bogus and "commands" in bogus
        # A count that is not a positive integer is answered, not raised
        # out of the handler (which left the client an empty reply) nor
        # read as a slice start (``-3`` returned all but three alerts).
        for answer in bad_counts:
            assert "positive integer" in answer["error"]


def full_disk(self, *args):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestStoreFailure:
    """A tenant's columnar store is a copy fed from its alert stream,
    not its record of truth: a full disk stops the copy, never the
    tenant."""

    @staticmethod
    def lines(n=3000):
        render = renderer_for("bgl")
        records = generate_log("bgl", scale=1e-3, seed=SEED).records
        return [
            format_envelope("t", "bgl", render(record))
            for record, _ in zip(records, range(n))
        ]

    @pytest.mark.parametrize("failing", ["commit", "append_batch"])
    def test_full_disk_is_reported_and_serving_goes_on(
        self, tmp_path, monkeypatch, failing
    ):
        # ``commit`` fails at the first checkpoint barrier;
        # ``append_batch`` inside the worker's kernel call, where an
        # autoflush commit would.
        monkeypatch.setattr(ColumnarStoreWriter, failing, full_disk)
        lines = self.lines()

        async def main():
            service = IngestService(quick_config(
                store_dir=str(tmp_path), checkpoint_every=500,
            ))
            await service.start()
            for at in range(0, len(lines), 500):
                service.router.ingest_lines(lines[at:at + 500])
                await wait_for(lambda: not service.router.total_queued())
            await service.drain()
            return service.final_report()

        row = asyncio.run(main())["t"]
        assert row["received"] == row["processed"] == 3000
        assert row["conserves"]
        assert (row["crashes"], row["quarantined"]) == (0, False)
        assert "No space left on device" in row["store"]["error"]

    @pytest.mark.parametrize("comeback", ["park", "restart"])
    def test_store_with_a_gap_is_never_finalized(
        self, tmp_path, monkeypatch, comeback
    ):
        """A commit fails, then the tenant is parked (or the service
        killed) and brought back with room on the disk again: its store
        still lacks those alerts, so the tenant that comes back reports
        the gap and never marks that store complete."""
        lines = self.lines(1500)
        config = quick_config(
            store_dir=str(tmp_path / "store"), checkpoint_every=500,
            state_dir=(
                str(tmp_path / "state") if comeback == "restart" else None
            ),
        )

        async def feed(router, chunk):
            for at in range(0, len(chunk), 100):
                router.ingest_lines(chunk[at:at + 100])
                await wait_for(lambda: not router.total_queued())

        async def main():
            router = TenantRouter(config)
            await feed(router, lines[:500])  # committed at its checkpoint
            with monkeypatch.context() as disk:
                disk.setattr(ColumnarStoreWriter, "commit", full_disk)
                await feed(router, lines[500:1000])
            if comeback == "park":
                now = time.monotonic() + config.idle_ttl + 1
                assert router.evict_idle(now=now) == ["t"]
            else:
                router = TenantRouter(config)  # the kill
                assert sorted(router.parked) == ["t"]
            await feed(router, lines[1000:])
            await router.drain()
            return router.tenants["t"].stats()

        row = asyncio.run(main())
        assert row["resumes"] == 1 and row["conserves"]
        assert row["store"]["error"].startswith("begin: store holds")
        store = ColumnarStore(row["store"]["dir"])
        assert not store.complete
        assert 0 < store.count() < row["alerts_raw"]


class TestLifecycle:
    def test_idle_eviction_and_resurrection(self):
        lines = native_lines("liberty", 120, "sleepy")

        async def main():
            service = IngestService(quick_config(
                idle_ttl=0.05, housekeeping_interval=0.01,
            ))
            await service.start()
            for line in lines[:60]:
                service.router.ingest_line(line)
            await wait_for(lambda: "sleepy" in service.router.parked)
            parked_row = service.tenant_stats("sleepy")
            assert parked_row["parked"]
            assert parked_row["processed"] == 60
            # New traffic resurrects the tenant from its checkpoint.
            for line in lines[60:]:
                service.router.ingest_line(line)
            assert "sleepy" in service.router.tenants
            await service.drain()
            return service

        service = asyncio.run(main())
        row = service.final_report()["sleepy"]
        assert row["received"] == 120
        assert row["processed"] == 120
        assert row["evictions"] == 1
        assert row["resumes"] == 1
        assert row["conserves"]

    def test_degraded_mode_flips_coarse_stats(self):
        lines = native_lines("liberty", 10, "t")

        async def main():
            service = IngestService(quick_config(
                housekeeping_interval=0.01,
            ))
            await service.start()
            for line in lines:
                service.router.ingest_line(line)
            tenant = service.router.tenants["t"]
            assert not tenant.path.stats_collector.coarse

            service.router.total_queued = (
                lambda: service.config.global_queue_budget
            )
            await wait_for(lambda: service.router.governor.degraded)
            assert tenant.path.stats_collector.coarse
            assert any("degraded" in e for e in service.events)
            # A path rebuilt mid-mode (crash restart) takes the mode in
            # force, whatever its checkpoint recorded.
            tenant._take_checkpoint()
            tenant._rebuild_path()
            assert tenant.path.stats_collector.coarse

            del service.router.total_queued  # restore the real method
            await wait_for(
                lambda: not service.router.governor.degraded
            )
            assert not tenant.path.stats_collector.coarse
            tenant._rebuild_path()  # from the degraded-mode checkpoint
            assert not tenant.path.stats_collector.coarse
            await service.drain()

        asyncio.run(main())

    def test_double_start_rejected(self):
        async def main():
            service = IngestService(quick_config())
            await service.start()
            with pytest.raises(RuntimeError, match="cannot start"):
                await service.start()
            await service.drain()

        asyncio.run(main())
