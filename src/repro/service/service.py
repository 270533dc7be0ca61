"""The long-lived ingest daemon: listeners, housekeeping, clean drain.

:class:`IngestService` composes the pieces this package defines — a
:class:`TenantRouter` fed by TCP/UDP listeners, watched by a periodic
housekeeping task, observable through a :class:`StatsServer` — into one
single-event-loop daemon.  The loop owns all tenant state, so routing
and accounting need no cross-task locking; fairness comes from each
tenant worker yielding after one ``service_batch``.

Housekeeping (every ``housekeeping_interval`` seconds) is where global
behavior lives: the memory governor samples total queued records and
flips degraded mode (coarse stats on every tenant) under sustained
overload, idle tenants are parked as checkpoints, and throughput samples
are taken for the stats endpoint.

Shutdown is a *drain*, not an abort: listeners stop accepting, every
tenant worker finishes its queue and takes a final checkpoint, and only
then does :meth:`run` return — with per-tenant conservation intact, as
``final_report`` proves.
"""

from __future__ import annotations

import asyncio
import signal
import time
from typing import Dict, List, Optional

from .config import ServiceConfig
from .listeners import TcpIngestListener, UdpIngestListener
from .router import TenantRouter
from .stats import StatsServer


class IngestService:
    """A running multi-tenant ingest daemon (one per event loop)."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.router = TenantRouter(self.config)
        self.tcp = TcpIngestListener(
            self.router, self.config.host, self.config.tcp_port
        )
        self.udp = (
            UdpIngestListener(self.router, self.config.host,
                              self.config.udp_port)
            if self.config.enable_udp else None
        )
        self.stats_server = StatsServer(
            self, self.config.host, self.config.stats_port
        )
        self.state = "idle"
        self.started_at: Optional[float] = None
        self.events: List[str] = []
        self._housekeeping: Optional[asyncio.Task] = None
        # Created in start(): binding an Event outside the running loop
        # breaks on Python 3.9.
        self._stopped: Optional[asyncio.Event] = None

    # -- addresses (valid after start) ------------------------------------

    @property
    def tcp_port(self) -> int:
        return self.tcp.port

    @property
    def udp_port(self) -> Optional[int]:
        return self.udp.port if self.udp is not None else None

    @property
    def stats_port(self) -> int:
        return self.stats_server.port

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind every listener and begin housekeeping."""
        if self.state != "idle":
            raise RuntimeError(f"cannot start from state {self.state!r}")
        self._stopped = asyncio.Event()
        await self.tcp.start()
        if self.udp is not None:
            await self.udp.start()
        await self.stats_server.start()
        self.state = "running"
        self.started_at = time.monotonic()
        self._housekeeping = asyncio.get_running_loop().create_task(
            self._housekeep(), name="service:housekeeping"
        )
        self._note(
            f"listening tcp={self.tcp.port} "
            f"udp={self.udp.port if self.udp else '-'} "
            f"stats={self.stats_server.port}"
        )

    async def drain(self) -> None:
        """Stop accepting, flush every tenant, publish final accounting."""
        if self.state in ("draining", "stopped"):
            return
        self.state = "draining"
        self._note("drain: listeners closing")
        await self.tcp.stop()
        if self.udp is not None:
            await self.udp.stop()
        try:
            await asyncio.wait_for(
                self.router.drain(), timeout=self.config.drain_timeout
            )
            self._note("drain: all tenants flushed")
        except asyncio.TimeoutError:  # pragma: no cover - pathological
            self._note(
                f"drain: timeout after {self.config.drain_timeout}s; "
                f"{self.router.total_queued()} records still queued"
            )
        if self._housekeeping is not None:
            self._housekeeping.cancel()
            self._housekeeping = None
        await self.stats_server.stop()
        self.state = "stopped"
        if self._stopped is not None:
            self._stopped.set()

    async def run(self, install_signals: bool = True) -> Dict[str, dict]:
        """Start, serve until SIGTERM/SIGINT (or :meth:`drain`), return
        the final per-tenant accounting report."""
        await self.start()
        await self.run_until_stopped(install_signals)
        return self.final_report()

    async def run_until_stopped(self, install_signals: bool = True) -> None:
        """Serve (already started) until SIGTERM/SIGINT triggers a drain
        or :meth:`drain` is called directly."""
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig, lambda: asyncio.ensure_future(self.drain())
                    )
                except (NotImplementedError, RuntimeError):
                    break  # non-unix or nested loop: rely on drain()
        await self._stopped.wait()

    def _note(self, event: str) -> None:
        self.events.append(event)
        if len(self.events) > 256:
            del self.events[:128]

    # -- housekeeping ------------------------------------------------------

    async def _housekeep(self) -> None:
        governor = self.router.governor
        interval = self.config.housekeeping_interval
        while True:
            await asyncio.sleep(interval)
            was_degraded = governor.degraded
            governor.sample(self.router.total_queued())
            if governor.degraded != was_degraded:
                self.router.set_coarse_stats(governor.degraded)
                self._note(
                    "degraded mode entered: coarse statistics"
                    if governor.degraded else
                    "degraded mode cleared: fine statistics restored"
                )
            now = time.monotonic()
            for tenant in self.router.tenants.values():
                tenant.note_sample(now)
            for tenant_id in self.router.evict_idle(now):
                self._note(f"evicted idle tenant {tenant_id} (checkpointed)")

    # -- observation (consumed by StatsServer and tests) -------------------

    def stats(self) -> dict:
        uptime = (
            time.monotonic() - self.started_at
            if self.started_at is not None else 0.0
        )
        return {
            "state": self.state,
            "uptime": round(uptime, 3),
            "router": self.router.stats(),
            "tcp_connections": self.tcp.connections,
            "udp_datagrams": (
                self.udp.protocol.datagrams
                if self.udp is not None and self.udp.protocol is not None
                else 0
            ),
            "events": list(self.events[-16:]),
            "tenants": {
                tid: t.stats() for tid, t in self.router.tenants.items()
            },
        }

    def health(self) -> dict:
        return {
            "state": self.state,
            "tenants_live": len(self.router.tenants),
            "tenants_parked": len(self.router.parked),
            "degraded": self.router.governor.degraded,
            "conserving": all(
                t.counters.conserves(len(t.queue))
                for t in self.router.tenants.values()
            ),
        }

    def tenant_stats(self, tenant_id: str) -> Optional[dict]:
        tenant = self.router.tenants.get(tenant_id)
        if tenant is not None:
            return tenant.stats()
        parked = self.router.parked.get(tenant_id)
        if parked is not None:
            row = parked.counters.as_dict()
            row.update({
                "tenant": tenant_id,
                "system": parked.system,
                "parked": True,
                "conserves": parked.counters.conserves(0),
            })
            return row
        return None

    def alert_tail(self, tenant_id: str):
        tenant = self.router.tenants.get(tenant_id)
        if tenant is not None:
            return tenant.alert_tail
        parked = self.router.parked.get(tenant_id)
        if parked is not None:
            return parked.tail
        return None

    def final_report(self) -> Dict[str, dict]:
        """Per-tenant accounting after drain: every live and parked
        tenant's counters plus the service-level unroutable count."""
        report: Dict[str, dict] = {}
        for tenant_id, tenant in self.router.tenants.items():
            report[tenant_id] = tenant.stats()
        for tenant_id, parked in self.router.parked.items():
            if tenant_id not in report:
                report[tenant_id] = self.tenant_stats(tenant_id)
        report["_service"] = self.router.stats()
        return report
