"""Durable tenant state: a killed ``repro serve`` must resurrect every
tenant byte-identical (quiesced case), rebuild from the journal alone
when it died before its first checkpoint, keep a quarantined tenant
quarantined across the restart, and degrade — not crash — when the
state directory's disk fails."""

import asyncio
import hashlib
import os
import shutil
import time
import urllib.parse
from pathlib import Path

import pytest

from repro.logio.writer import renderer_for
from repro.resilience import wire
from repro.resilience.faults import FaultyFilesystem
from repro.service.accounting import TenantCounters
from repro.service.config import ServiceConfig
from repro.service.persistence import TenantStateStore, tenant_dirname
from repro.service.router import TenantRouter, format_envelope
from repro.service.tenant import ParkedTenant, Tenant
from repro.simulation.generator import generate_log

from ..conftest import SEED, SMALL_SCALE, Killed, KillableFilesystem

#: Counters that must survive a kill/resurrect cycle exactly.  Lifecycle
#: counters (``resumes``, ``evictions``) legitimately differ between an
#: interrupted and an uninterrupted run.
COMPARE = ("received", "shed", "refused", "processed",
           "alerts_raw", "alerts_filtered")

TENANTS = {"acme": "bgl", "zenith": "spirit"}


def wire_lines(tenant_id, system, n=250):
    render = renderer_for(system)
    records = list(
        generate_log(system, scale=SMALL_SCALE, seed=SEED).records
    )[:n]
    return [format_envelope(tenant_id, system, render(r)) for r in records]


def roomy_config(state_dir=None, **kw):
    kw.setdefault("max_buffer", 1 << 16)
    kw.setdefault("alert_tail", 1 << 16)
    kw.setdefault("dead_letter_capacity", 1 << 16)
    return ServiceConfig(state_dir=state_dir, **kw)


async def quiesce(router, expected):
    """Wait until every expected tenant has consumed its whole feed."""
    deadline = asyncio.get_running_loop().time() + 10.0
    while True:
        live = [router.tenants[t] for t in expected if t in router.tenants]
        if len(live) == len(expected) and all(
            not t.queue and t.counters.received >= expected[t.tenant_id]
            for t in live
        ):
            return
        if asyncio.get_running_loop().time() >= deadline:
            raise AssertionError("tenants did not quiesce")
        await asyncio.sleep(0.005)


def tenant_state(router):
    return {
        tenant_id: {
            "counters": tenant.counters.as_dict(),
            "tail": tenant.alert_tail,
        }
        for tenant_id, tenant in router.tenants.items()
    }


class TestParkedCodec:
    def _parked(self):
        async def main():
            tenant = Tenant("acme", "bgl", roomy_config())
            tenant.start()
            records = list(
                generate_log("bgl", scale=SMALL_SCALE, seed=SEED).records
            )[:120]
            for record in records:
                tenant.offer(record)
            await tenant.drain()
            return tenant.park()

        return asyncio.run(main())

    def test_round_trip_drops_live_compressor(self):
        bundle = self._parked()
        decoded = wire.load_file(
            wire.dump_file(wire.CHECKPOINT_MAGIC, bundle),
            wire.CHECKPOINT_MAGIC, ParkedTenant,
        )
        assert bundle.checkpoint.stats.compressor is not None
        assert decoded.tenant_id == bundle.tenant_id
        assert decoded.counters.as_dict() == bundle.counters.as_dict()
        assert decoded.dead_letters == bundle.dead_letters
        assert decoded.tail == bundle.tail and bundle.tail
        assert decoded.checkpoint.stats.compressor is None
        assert (decoded.checkpoint.stats.stats
                == bundle.checkpoint.stats.stats)

    def test_wrong_payload_type_rejected(self):
        import pickle

        with pytest.raises(wire.WireError, match="not ParkedTenant"):
            wire.loads(pickle.dumps("not one"), ParkedTenant)
        with pytest.raises(wire.WireError):
            wire.loads(b"\x00 not a pickle at all", ParkedTenant)


class TestDirnames:
    @pytest.mark.parametrize("tenant_id", [
        "plain", "a/b:c", "../../escape", "..", ".", ".hidden",
        "sp ce", "unié", "@t:sys",
    ])
    def test_quoting_cannot_escape_the_state_dir(self, tenant_id):
        name = tenant_dirname(tenant_id)
        assert os.sep not in name
        assert name not in ("", ".", "..")
        assert not name.startswith(".")  # no dotfile/traversal names
        root = os.path.join("/state", "tenants")
        joined = os.path.normpath(os.path.join(root, name))
        assert joined.startswith(root + os.sep)
        assert urllib.parse.unquote(name) == tenant_id  # still invertible


class TestRouterRoundTrip:
    def test_quiesced_kill_resurrects_byte_identical(self, tmp_path):
        """ACCEPTANCE (service durability): feed half of each tenant's
        stream, quiesce, park to disk, throw the router away (the kill),
        route the second half through a brand-new router — counters and
        alert tails must equal one uninterrupted run's exactly."""
        feeds = {
            tenant_id: wire_lines(tenant_id, system)
            for tenant_id, system in TENANTS.items()
        }
        expected = {t: len(lines) for t, lines in feeds.items()}

        async def uninterrupted():
            router = TenantRouter(roomy_config())
            for lines in feeds.values():
                for line in lines:
                    router.ingest_line(line)
            await quiesce(router, expected)
            return tenant_state(router)

        async def interrupted():
            state_dir = str(tmp_path / "state")
            first = TenantRouter(roomy_config(state_dir))
            for lines in feeds.values():
                for line in lines[:len(lines) // 2]:
                    first.ingest_line(line)
            await quiesce(
                first, {t: len(v) // 2 for t, v in feeds.items()}
            )
            evicted = first.evict_idle(
                now=time.monotonic() + first.config.idle_ttl + 1
            )
            assert sorted(evicted) == sorted(TENANTS)
            # The kill: nothing in-memory survives to the second router.
            del first

            second = TenantRouter(roomy_config(state_dir))
            assert sorted(second.parked) == sorted(TENANTS)
            for lines in feeds.values():
                for line in lines[len(lines) // 2:]:
                    second.ingest_line(line)
            await quiesce(second, expected)
            assert not second.state_store.status.degraded
            for tenant in second.tenants.values():
                assert tenant.counters.resumes == 1
            return tenant_state(second)

        reference = asyncio.run(uninterrupted())
        recovered = asyncio.run(interrupted())
        for tenant_id in TENANTS:
            for key in COMPARE:
                assert (
                    recovered[tenant_id]["counters"][key]
                    == reference[tenant_id]["counters"][key]
                ), f"{tenant_id}.{key} diverged across the kill"
            assert recovered[tenant_id]["tail"] == reference[tenant_id]["tail"]

    def test_journal_alone_rebuilds_an_uncheckpointed_tenant(self, tmp_path):
        """Kill before the first checkpoint: checkpoint_every is huge and
        the tenant is never parked, so recovery has only the WAL."""
        state_dir = str(tmp_path / "state")
        lines = wire_lines("acme", "bgl", 200)

        async def main():
            router = TenantRouter(
                roomy_config(state_dir, checkpoint_every=10**9)
            )
            for line in lines:
                router.ingest_line(line)
            await quiesce(router, {"acme": len(lines)})
            tenant = router.tenants["acme"]
            assert tenant.checkpoint is None  # really no checkpoint taken
            return tenant.counters.as_dict(), tenant.alert_tail

        counters, tail = asyncio.run(main())

        store = TenantStateStore(
            state_dir, roomy_config(state_dir, checkpoint_every=10**9)
        )
        parked = store.load_all()
        assert sorted(parked) == ["acme"]
        bundle = parked["acme"]
        assert any("journal alone" in note for note in store.status.notes)
        for key in COMPARE:
            assert bundle.counters.as_dict()[key] == counters[key], key
        assert bundle.counters.conserves(0)
        # The full tail fits in a roomy alert_tail, so it survives whole.
        assert bundle.tail == tail

    def test_quarantine_survives_the_restart(self, tmp_path):
        """A tenant that spent its restart budget must come back
        quarantined — a crash-loop cannot launder its budget through a
        service restart."""
        state_dir = str(tmp_path / "state")

        def doomed(tenant_id, record):
            raise RuntimeError("injected poison")

        config = roomy_config(state_dir, fault_hook=doomed, restart_budget=0)
        lines = wire_lines("acme", "bgl", 50)

        async def crash_out():
            router = TenantRouter(config)
            for line in lines:
                router.ingest_line(line)
            await router.drain()
            tenant = router.tenants["acme"]
            assert tenant.quarantined
            assert tenant.counters.conserves(0)
            return tenant.counters.as_dict()

        final = asyncio.run(crash_out())

        async def come_back():
            # Same restart budget, but no fault hook: the tenant must be
            # quarantined by its persisted crash count, not by crashing
            # again.
            clean = roomy_config(state_dir, restart_budget=0)
            router = TenantRouter(clean)
            assert sorted(router.parked) == ["acme"]
            router.ingest_line(lines[0])
            tenant = router.tenants["acme"]
            assert tenant.quarantined
            await router.drain()
            assert tenant.counters.conserves(0)
            # The offered line was refused, not processed.
            assert tenant.counters.processed == final["processed"]
            assert tenant.counters.refused == final["refused"] + 1

        asyncio.run(come_back())

    def test_a_torn_identity_is_written_again(self, tmp_path):
        """A kill inside the ``TENANT`` write used to leave a torn file
        that was never rewritten, so every later start skipped the
        tenant ("no readable identity") and dropped its journal."""
        state = str(tmp_path / "state")
        config = roomy_config(state)
        dying = TenantStateStore(state, config, fs=KillableFilesystem(kill_at=0))
        with pytest.raises(Killed):
            dying.for_tenant("acme", "bgl")

        # The tenant comes back and journals, then the service restarts.
        persistence = TenantStateStore(state, config).for_tenant("acme", "bgl")
        persistence.journal("counters", TenantCounters(received=7).as_dict())
        persistence.sync()
        parked = TenantStateStore(state, config).load_all()
        assert parked["acme"].counters.received == 7

    def test_degraded_storage_keeps_the_tenant_serving(self, tmp_path):
        """ENOSPC on every state write: the tenant's output and
        conservation are untouched; the shared status carries the latch."""
        config = roomy_config(str(tmp_path / "state"))
        store = TenantStateStore(
            str(tmp_path / "state"), config, fs=FaultyFilesystem(fail_after=0)
        )
        records = list(
            generate_log("bgl", scale=SMALL_SCALE, seed=SEED).records
        )[:200]

        async def run(persistence):
            tenant = Tenant("acme", "bgl", config, persistence=persistence)
            tenant.start()
            for record in records:
                tenant.offer(record)
            await tenant.drain()
            return tenant

        plain = asyncio.run(run(None))
        degraded = asyncio.run(run(store.for_tenant("acme", "bgl")))

        assert store.status.degraded
        assert degraded.counters.conserves(0)
        assert degraded.alert_tail == plain.alert_tail
        for key in COMPARE:
            assert (degraded.counters.as_dict()[key]
                    == plain.counters.as_dict()[key]), key
        # And nothing half-written is trusted on the next startup.
        fresh = TenantStateStore(str(tmp_path / "state"), config)
        assert fresh.load_all() == {}


def _tail_digest(alerts):
    lines = (f"{a.timestamp!r} {a.source} {a.category}" for a in alerts)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class TestStateFromOlderCode:
    """``fixtures/state/serve-tenants`` was written by commit 0e83a8d,
    the last commit whose parked bundles had their own codec::

        repro serve --no-udp --tcp-port 0 --stats-port 0 \\
            --state-dir tests/fixtures/state/serve-tenants \\
            --checkpoint-every 200 --max-buffer 16

    fed over one TCP connection with ``@acme:bgl`` and
    ``@zenith:spirit`` envelopes around the lines of the golden
    ``bgl.log`` and ``spirit.log``: lines 1-240 of each paced (four per
    tenant every 20 ms), a 1 s pause, then lines 241-320 of each in one
    blast, and SIGKILLed 1.5 s later.  Each tenant left its ``TENANT``
    identity, generation 1 (taken at 200 records) and a journal of
    ``alert``, shed-overload ``letter`` and ``counters`` entries past
    it.  Recovery must land on what that commit recovered: the counters
    below, alert tails of the given lengths and digests, and the
    journaled dead letters."""

    FIXTURE = (
        Path(__file__).resolve().parents[1]
        / "fixtures" / "state" / "serve-tenants"
    )
    #: tenant -> (counters, raw tail, dead letters)
    RECOVERED = {
        "acme": (
            {"received": 320, "shed": 59,
             "shed_by_class": {"info-chatter": 59},
             "refused": 5, "refused_tagged": 5,
             "refused_by_reason": {"shed-overload": 5},
             "processed": 256, "alerts_raw": 57, "alerts_filtered": 57,
             "crashes": 0, "evictions": 0, "resumes": 0},
            (57, "79ff8f94ab68c851"), 5,
        ),
        "zenith": (
            {"received": 320, "shed": 21,
             "shed_by_class": {"duplicate-alert": 6, "info-chatter": 15},
             "refused": 43, "refused_tagged": 43,
             "refused_by_reason": {"shed-overload": 43},
             "processed": 256, "alerts_raw": 201, "alerts_filtered": 165,
             "crashes": 0, "evictions": 0, "resumes": 0},
            (201, "d07c96ddbca706b3"), 43,
        ),
    }

    def test_load_all_recovers_the_recorded_tenants(self, tmp_path):
        state_dir = tmp_path / "state"
        shutil.copytree(self.FIXTURE, state_dir)
        store = TenantStateStore(
            str(state_dir), ServiceConfig(state_dir=str(state_dir))
        )
        parked = store.load_all()

        assert sorted(parked) == sorted(self.RECOVERED)
        assert store.status.notes == [] and not store.status.degraded
        for tenant_id, bundle in parked.items():
            counters, raw, letters = self.RECOVERED[tenant_id]
            assert bundle.system == {"acme": "bgl", "zenith": "spirit"}[
                tenant_id
            ]
            assert bundle.counters.as_dict() == counters
            assert bundle.counters.conserves(0)
            checkpoint = bundle.checkpoint
            assert checkpoint.records_consumed == 200
            assert (len(bundle.tail), _tail_digest(bundle.tail)) == raw
            assert bundle.dead_letters.quarantined == letters
            assert bundle.dead_letters.by_reason == (
                ("shed-overload", letters),
            )
            assert checkpoint.dead_letters == bundle.dead_letters

    def test_generation_of_the_wrong_type_is_quarantined(self, tmp_path):
        """A newer generation with the right token but no parked bundle
        inside (a string, or a batch run's ``PipelineCheckpoint``) is
        quarantined, and each tenant recovers from generation 1 as
        recorded."""
        state_dir = tmp_path / "state"
        shutil.copytree(self.FIXTURE, state_dir)
        for tenant_id in self.RECOVERED:
            checkpoints = state_dir / "tenants" / tenant_id / "checkpoints"
            wrapper = wire.load_file(
                (checkpoints / "gen-00000001.ckpt").read_bytes(),
                wire.CHECKPOINT_MAGIC, dict,
            )
            foreign = {"acme": "not one",
                       "zenith": wrapper["parked"].checkpoint}[tenant_id]
            (checkpoints / "gen-00000002.ckpt").write_bytes(wire.dump_file(
                wire.CHECKPOINT_MAGIC,
                {"meta": dict(wrapper["meta"], generation=2),
                 "checkpoint": foreign},
            ))

        store = TenantStateStore(
            str(state_dir), ServiceConfig(state_dir=str(state_dir))
        )
        parked = store.load_all()

        assert sorted(parked) == sorted(self.RECOVERED)
        for tenant_id, bundle in parked.items():
            counters, raw, _letters = self.RECOVERED[tenant_id]
            assert isinstance(bundle, ParkedTenant)
            assert bundle.counters.as_dict() == counters
            assert (len(bundle.tail), _tail_digest(bundle.tail)) == raw
            checkpoints = state_dir / "tenants" / tenant_id / "checkpoints"
            assert (checkpoints / "gen-00000002.ckpt.corrupt").exists()
        notes = [n for n in store.status.notes if "quarantined" in n]
        assert len(notes) == 2
        assert any("not ParkedTenant" in note for note in notes)
