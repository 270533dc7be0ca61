"""Wire framing: any chunking of a payload delivers the same lines.

The TCP listener reads whatever the socket hands it, so where a chunk
ends is the network's choice: inside a multi-byte character, between a
``\\r`` and its ``\\n``, in the middle of an envelope.  The lines the
router is handed must not depend on it — they are what
``payload.split(b"\\n")`` gives, each decoded on its own — and a line
longer than the limit is the same truncated line however it was cut.
"""

import asyncio
import random

import pytest

from repro.logio.writer import renderer_for
from repro.logmodel.clock import roll_years
from repro.logmodel.dialects import DIALECTS
from repro.service import IngestService, ServiceConfig
from repro.service.listeners import (
    MAX_LINE_BYTES,
    TcpIngestListener,
    UdpIngestProtocol,
)
from repro.service.router import format_envelope, parse_envelope
from repro.simulation.generator import generate_log
from repro.systems.specs import SYSTEMS

from ..conftest import SEED, SMALL_SCALE
from .test_service import quick_config, wait_for


def wire_payload(per_system=40):
    """Five dialects interleaved, with everything framing can trip on:
    multi-byte characters, ``\\r\\n`` endings, empty lines, invalid
    UTF-8, and a final line without a newline."""
    rng = random.Random(SEED)
    streams = []
    for system in sorted(SYSTEMS):
        render = renderer_for(system)
        records = generate_log(system, scale=SMALL_SCALE, seed=SEED).records
        streams.append([
            format_envelope(f"t-{system}", system, render(record))
            for record, _ in zip(records, range(per_system))
        ])
    pieces = []
    for row in zip(*streams):
        for line in row:
            raw = line.encode()
            roll = rng.random()
            if roll < 0.15:
                raw += " naïve 日本語 \U0001f525".encode()
            elif roll < 0.2:
                raw += b" \xe2\x82"  # a truncated three-byte sequence
            pieces.append(raw + (b"\r\n" if rng.random() < 0.2 else b"\n"))
            if rng.random() < 0.1:
                pieces.append(rng.choice([b"\n", b"\r\n", b"\r\r\n"]))
    return b"".join(pieces) + "@t-bgl:bgl no newline after this é".encode()


def reference_lines(payload):
    lines = (
        raw[:MAX_LINE_BYTES].decode("utf-8", errors="replace").rstrip("\r")
        for raw in payload.split(b"\n")
    )
    return [line for line in lines if line]


def random_cuts(payload, rng, longest):
    at, chunks = 0, []
    while at < len(payload):
        size = rng.randint(1, longest)
        chunks.append(payload[at:at + size])
        at += size
    return chunks


class ChunkReader:
    """A stream that hands the listener exactly these chunks."""

    def __init__(self, chunks):
        self.chunks = [chunk for chunk in chunks if chunk]

    async def read(self, n):
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        assert len(chunk) <= n
        return chunk


class NullWriter:
    def close(self):
        pass

    async def wait_closed(self):
        pass


class RecordingRouter:
    def __init__(self):
        self.lines = []
        self.calls = 0
        self.longest_block = 0

    def ingest_lines(self, lines):
        self.calls += 1
        self.lines.extend(lines)
        self.longest_block = max(
            self.longest_block, sum(len(line.encode()) for line in lines)
        )


def framed(chunks):
    router = RecordingRouter()
    listener = TcpIngestListener(router, "127.0.0.1", 0)
    asyncio.run(listener._serve(ChunkReader(chunks), NullWriter()))
    assert listener.connections_open == 0
    return router


class TestAnyChunking:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_cuts_deliver_the_reference_lines(self, seed):
        payload = wire_payload()
        want = reference_lines(payload)
        assert len(want) == 201
        assert any("�" in line for line in want)
        rng = random.Random(seed)
        longest = rng.choice([1, 3, 17, 300, 3000, MAX_LINE_BYTES])
        got = framed(random_cuts(payload, rng, longest))
        assert got.lines == want

    def test_cuts_at_every_offset_of_the_awkward_spots(self):
        """Every two-chunk split of a payload whose every byte is a
        place to trip: inside each multi-byte character, between ``\\r``
        and ``\\n``, before and after an empty line, before the
        unterminated end."""
        payload = "@a:bgl é日\r\n\r\n@b:bgl \U0001f525x\n\n@a:bgl end".encode()
        want = reference_lines(payload)
        assert want == ["@a:bgl é日", "@b:bgl \U0001f525x", "@a:bgl end"]
        for cut in range(len(payload) + 1):
            assert framed([payload[:cut], payload[cut:]]).lines == want, cut

    def test_a_chunk_is_one_call(self):
        payload = wire_payload()
        got = framed([payload])
        assert got.lines == reference_lines(payload)
        assert got.calls == 2  # the newline-terminated block, then the tail


class TestOverLongLines:
    @pytest.mark.parametrize("size", [MAX_LINE_BYTES + 1, 70_000, 200_000])
    @pytest.mark.parametrize("longest", [1000, MAX_LINE_BYTES])
    def test_truncated_once_and_the_rest_intact(self, size, longest):
        good = [f"@t:liberty good line {i}" for i in range(11)]
        junk = "@t:liberty " + "x" * (size - 11)
        payload = "\n".join([good[0], junk] + good[1:]).encode() + b"\n"
        rng = random.Random(size)
        got = framed(random_cuts(payload, rng, longest))
        assert got.lines == [good[0], junk[:MAX_LINE_BYTES]] + good[1:]
        assert got.lines == reference_lines(payload)
        # Per-connection memory: never more than the kept tail plus one
        # chunk in hand.
        assert got.longest_block <= 2 * MAX_LINE_BYTES

    def test_a_line_of_exactly_the_limit_is_intact(self):
        line = "@t:bgl " + "y" * (MAX_LINE_BYTES - 7)
        payload = (line + "\nnext\n").encode()
        for longest in (999, MAX_LINE_BYTES):
            chunks = random_cuts(payload, random.Random(1), longest)
            assert framed(chunks).lines == [line, "next"]

    def test_unframed_flood_is_one_accounted_line(self):
        flood = [b"z" * MAX_LINE_BYTES] * 5
        got = framed(flood)
        assert got.lines == ["z" * MAX_LINE_BYTES]


class TestRealSockets:
    def test_ragged_tcp_writes_keep_per_tenant_order(self):
        """The same payload through a real socket in small ragged
        writes: every tenant is offered its lines, in order."""
        payload = wire_payload()
        native = {}
        for line in reference_lines(payload):
            tenant, system, rest = parse_envelope(line)
            native.setdefault((tenant, system), []).append(rest)
        # Each tenant's lines are one stream, years rolled as in a file
        # read (Red Storm's RAS stamps carry a year its syslog ones take).
        want = {
            tenant: list(roll_years(
                lines, DIALECTS[system].parse, ServiceConfig().year,
            ))
            for (tenant, system), lines in native.items()
        }

        async def main():
            service = IngestService(quick_config())
            await service.start()
            offered = {}
            materialize = service.router._materialize

            def spying(tenant_id, system):
                tenant = materialize(tenant_id, system)
                inner = tenant.offer_batch
                tenant.offer_batch = lambda records: (
                    offered.setdefault(tenant_id, []).extend(records),
                    inner(records),
                )
                return tenant

            service.router._materialize = spying
            _, writer = await asyncio.open_connection(
                "127.0.0.1", service.tcp_port
            )
            for chunk in random_cuts(payload, random.Random(5), 700):
                writer.write(chunk)
                await writer.drain()
                await asyncio.sleep(0)
            writer.close()
            await writer.wait_closed()
            await wait_for(lambda: service.router.lines_seen >= 201)
            await service.drain()
            return service, offered

        service, offered = asyncio.run(main())
        assert service.router.lines_seen == 201
        assert service.router.unroutable.quarantined == 0
        assert sorted(offered) == sorted(want)
        for tenant_id, records in want.items():
            assert offered[tenant_id] == records
            row = service.final_report()[tenant_id]
            assert row["received"] == len(records)
            assert row["conserves"]

    def test_udp_datagram_is_one_offer_per_tenant(self):
        """A multi-line datagram goes through the same door: its lines
        reach each tenant as one run."""
        calls = []

        class Router:
            def ingest_lines(self, lines):
                calls.append(list(lines))

        protocol = UdpIngestProtocol(Router())
        protocol.datagram_received(
            "@a:bgl one\r\n\n@b:bgl two é\n@a:bgl three".encode(), None
        )
        assert protocol.datagrams == 1
        assert calls == [["@a:bgl one", "@b:bgl two é", "@a:bgl three"]]
