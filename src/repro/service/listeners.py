"""Syslog wire listeners: newline-framed TCP and datagram UDP.

Both transports frame with :func:`wire_lines` and hand each block's
lines to :meth:`TenantRouter.ingest_lines` on the event loop.  The wire
protocol is unchanged: one envelope per ``\n``-terminated line (or per
datagram), a ``\r`` before the newline and empty lines ignored.  TCP
reads chunks of up to :data:`MAX_LINE_BYTES`, frames everything up to a
chunk's last newline at once (one decode per chunk — a cut at ``\n``
cannot split a UTF-8 sequence, wherever the network cut) and keeps the
unterminated rest, never more than the limit.  A longer line is
truncated to the limit and routed like any other (its envelope names
its tenant, whose parser flags it corrupted), the lines behind it
intact; an unframed flood is one accounted line.  Decoding is tolerant
(``errors="replace"``): garbage becomes an unroutable or corrupted-
record dead letter downstream, never a listener exception.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

#: The longest wire line, in bytes; what a line has beyond it is dropped
#: (up to its newline), so one unframed flood cannot grow memory.
MAX_LINE_BYTES = 64 * 1024


def wire_lines(block: bytes) -> List[str]:
    """The non-empty wire lines of a newline-delimited block."""
    if len(block) > MAX_LINE_BYTES:
        cut = (raw[:MAX_LINE_BYTES] for raw in block.split(b"\n"))
        block = b"\n".join(cut)
    text = block.decode("utf-8", errors="replace")
    lines = text.split("\n")
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    return list(filter(None, lines))


class TcpIngestListener:
    """Newline-framed envelope stream over TCP."""

    def __init__(self, router, host: str, port: int):
        self.router = router
        self.host = host
        self.port = port
        self.connections = 0
        self.connections_open = 0
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._serve, self.host, self.port,
            limit=MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        self.connections_open += 1
        ingest = self.router.ingest_lines
        tail = b""  # the unterminated end of what has been read
        try:
            while True:
                chunk = await reader.read(MAX_LINE_BYTES)
                if not chunk:
                    break
                head, newline, rest = chunk.rpartition(b"\n")
                if newline:
                    ingest(wire_lines(tail + head))
                    tail = rest
                else:
                    # Inside one line still: keep what it is cut to.
                    tail = (tail + chunk)[:MAX_LINE_BYTES]
            ingest(wire_lines(tail))
        except (ConnectionResetError, BrokenPipeError):
            pass  # abrupt churn is normal; everything framed was ingested
        finally:
            self.connections_open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class UdpIngestProtocol(asyncio.DatagramProtocol):
    """One envelope per datagram (multi-line datagrams are split)."""

    def __init__(self, router):
        self.router = router
        self.datagrams = 0

    def datagram_received(self, data: bytes, addr) -> None:
        self.datagrams += 1
        self.router.ingest_lines(wire_lines(data))

    def error_received(self, exc) -> None:  # pragma: no cover - OS-dependent
        pass


class UdpIngestListener:
    """Datagram envelope listener (the lossy classic-syslog path)."""

    def __init__(self, router, host: str, port: int):
        self.router = router
        self.host = host
        self.port = port
        self.protocol: Optional[UdpIngestProtocol] = None
        self._transport = None

    async def start(self) -> Tuple[str, int]:
        loop = asyncio.get_running_loop()
        self._transport, self.protocol = await loop.create_datagram_endpoint(
            lambda: UdpIngestProtocol(self.router),
            local_addr=(self.host, self.port),
        )
        sock = self._transport.get_extra_info("socket")
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None
