"""Live stats/alerts endpoint: one-request JSON lines over a local socket.

The protocol is deliberately primitive — connect, send one command line,
read one JSON line, the server closes — so ``repro stats`` and shell
tools (``nc``) can poke a running service without a client library:

* ``stats`` — service overview plus one accounting row per live tenant;
* ``tenant <id>`` — one tenant's full row (live or parked);
* ``alerts <id> [n]`` — the newest ``n`` raw alerts of one tenant;
* ``health`` — tiny liveness document (state, tenants, conservation).

:func:`query_stats` is the matching synchronous client.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Optional, Tuple

from ..core.categories import Alert


def render_alert(alert: Alert) -> dict:
    return {
        "timestamp": alert.timestamp,
        "source": alert.source,
        "category": alert.category,
        "type": alert.alert_type.name,
        "body": alert.record.body[:200],
    }


class StatsServer:
    """The request handler; owns no state beyond a service reference."""

    def __init__(self, service, host: str, port: int):
        self.service = service
        self.host = host
        self.port = port
        self.requests = 0
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._serve, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        self.requests += 1
        try:
            raw = await asyncio.wait_for(reader.readline(), timeout=5.0)
            command = raw.decode("utf-8", errors="replace").strip()
            response = self._answer(command)
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _answer(self, command: str) -> dict:
        parts = command.split()
        verb = parts[0] if parts else ""
        if verb == "stats":
            return self.service.stats()
        if verb == "health":
            return self.service.health()
        if verb == "tenant" and len(parts) >= 2:
            row = self.service.tenant_stats(parts[1])
            if row is None:
                return {"error": f"unknown tenant {parts[1]!r}"}
            return row
        if verb == "alerts" and len(parts) >= 2:
            limit = parts[2] if len(parts) >= 3 else "20"
            if not (limit.isdecimal() and int(limit) > 0):
                return {"error": f"alert count {limit!r} is not a "
                                 "positive integer"}
            limit = int(limit)
            tail = self.service.alert_tail(parts[1])
            if tail is None:
                return {"error": f"unknown tenant {parts[1]!r}"}
            return {
                "tenant": parts[1],
                "alerts": [render_alert(a) for a in tail[-limit:]],
            }
        return {
            "error": f"unknown command {command!r}",
            "commands": ["stats", "health", "tenant <id>", "alerts <id> [n]"],
        }


def query_stats(
    host: str, port: int, command: str = "stats", timeout: float = 5.0
) -> dict:
    """Synchronous client for :class:`StatsServer` (the ``repro stats``
    CLI and the soak harness's external observer)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(command.encode("utf-8") + b"\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    return json.loads(b"".join(chunks).decode("utf-8"))
