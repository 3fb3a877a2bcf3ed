"""The fleet endpoint: the worker-facing TCP server of every coordinator.

:class:`ServiceCoordinator` routes each message of the fleet wire
(:mod:`repro.distributed.protocol`, whose connection handler does the
framing and the mutual HMAC auth) to a
:class:`~repro.service.queue.PlanQueue`. It is the only fleet message
dispatcher in the repository: ``repro serve`` runs one over a
many-tenant queue, and a one-plan fleet run
(:class:`~repro.distributed.coordinator.FleetExecutor`) runs one over a
queue holding its single plan. Workers see one wire either way: the
``welcome`` carries no plan, each ``unit`` grant ships its ``plan_id``
and plan payload inline, the worker echoes the id on
``heartbeat``/``complete``/``records``, every ``complete`` reply
piggybacks the next decision, and workers leave only via ``bye``.
"""

from __future__ import annotations

import logging
import socketserver
import threading
import time

from repro.distributed.protocol import (
    FleetError,
    FleetRequestHandler,
    check_auth_token,
)
from repro.obs import telemetry

from repro.service.queue import PlanQueue

__all__ = ["ServiceCoordinator"]

log = logging.getLogger("repro.service.coordinator")


class ServiceCoordinator:
    """Serve a :class:`PlanQueue` to fleet workers over TCP.

    Parameters
    ----------
    queue:
        The scheduler every message is routed to (one plan or many).
    host, port:
        Listen address; port ``0`` lets the OS pick (read it back from
        :attr:`address` after :meth:`start`).
    share_sessions, poll_interval:
        Advertised to workers on ``welcome``: whether a leased unit's
        runs share one engine session, and the idle re-ask cadence.
    auth_token:
        Shared secret for the mutual challenge–response handshake
        (``None`` disables authentication) — enforced by the shared
        connection handler before any dispatch here.
    """

    def __init__(
        self,
        queue: PlanQueue,
        host: str = "127.0.0.1",
        port: int = 0,
        share_sessions: bool = True,
        poll_interval: float = 0.5,
        auth_token: str | None = None,
    ) -> None:
        self.queue = queue
        self.host = host
        self.port = port
        self.share_sessions = bool(share_sessions)
        self.poll_interval = float(poll_interval)
        self.auth_token = check_auth_token(auth_token)
        self.address: tuple[str, int] | None = None
        self._server: _ServiceServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns ``(host, port)``."""
        server = _ServiceServer((self.host, self.port), self)
        self._server = server
        self.address = (
            server.server_address[0],
            int(server.server_address[1]),
        )
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="service-coordinator",
        )
        self._thread.start()
        log.info(
            "service coordinator listening on %s:%d", *self.address
        )
        return self.address

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    def dispatch(self, message: dict) -> dict:
        """Route one fleet message to the queue (the handler calls this
        after framing and, when configured, authentication)."""
        mtype = message.get("type")
        worker = str(message.get("worker", ""))
        queue = self.queue
        if mtype == "hello":
            queue.touch(worker)
            return {
                "type": "welcome",
                "share_sessions": self.share_sessions,
                "lease_timeout": queue.lease_timeout,
                "poll_interval": self.poll_interval,
            }
        if mtype == "lease":
            return queue.lease(worker)
        if mtype == "heartbeat":
            telemetry().fold_snapshot(
                message.get("metrics"), worker=worker
            )
            reply = queue.heartbeat(
                worker,
                message.get("plan_id"),
                message.get("lease"),
                message.get("telemetry"),
            )
            return _stamp_clock(message, reply)
        if mtype == "complete":
            telemetry().fold_snapshot(
                message.get("metrics"), worker=worker
            )
            reply = queue.complete(
                worker,
                message.get("plan_id"),
                message.get("lease"),
                message.get("telemetry"),
                message.get("records"),
            )
            return _stamp_clock(message, reply)
        if mtype == "records":
            return queue.merge_records(
                worker, message.get("plan_id"), message.get("records")
            )
        if mtype == "drain":
            target = str(message.get("target", "") or worker)
            if not target:
                raise FleetError("drain message without a target worker")
            queue.drain_worker(target)
            return {"type": "ok", "draining": target}
        if mtype == "status":
            # read-only, never counts as worker contact
            return queue.status()
        raise FleetError(f"unknown fleet message type {mtype!r}")


def _stamp_clock(message: dict, reply: dict) -> dict:
    """Answer a ``sent_at`` timestamp with the coordinator-measured
    clock-offset estimate (coordinator time minus worker send time —
    skewed by one-way latency, plenty for timeline alignment)."""
    sent = message.get("sent_at")
    if sent is not None:
        try:
            reply["clock_offset"] = time.time() - float(sent)
        except (TypeError, ValueError):
            pass
    return reply


class _ServiceServer(socketserver.ThreadingTCPServer):
    """The TCP shell: framing/auth handler + dispatch to the service.

    :class:`FleetRequestHandler` only touches ``server.auth_token`` and
    ``server.dispatch`` — exactly the surface this shim provides.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, address: tuple[str, int], service: ServiceCoordinator
    ) -> None:
        super().__init__(address, FleetRequestHandler)
        self.auth_token = service.auth_token
        self.dispatch = service.dispatch
