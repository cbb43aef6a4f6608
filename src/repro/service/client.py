"""Client for the ``repro serve`` daemon.

One :class:`ServiceClient` method call is one connection: connect to the
daemon's socket, send a single framed request, read the single framed
reply (see :mod:`repro.service.protocol`).  ``repro run --remote`` is a
thin CLI wrapper around this class.
"""

from __future__ import annotations

import socket
import time
from typing import Any

from .protocol import (
    ServiceBusy,
    ServiceError,
    default_socket_path,
    raise_for_reply,
    recv_message,
    send_message,
)

__all__ = ["ServiceClient", "ServiceError", "ServiceUnavailable"]


class ServiceUnavailable(ServiceError):
    """No daemon is listening on the socket (start one with ``repro serve``)."""


class ServiceClient:
    """Talks to a :class:`~repro.service.server.ReproServer`.

    Parameters
    ----------
    socket_path:
        The daemon's socket; defaults to
        :func:`~repro.service.protocol.default_socket_path`.
    timeout:
        Per-request socket timeout in seconds (connect and reply); a
        sweep that computes longer than this raises ``TimeoutError``
        client-side while the server finishes regardless.
    """

    def __init__(self, socket_path: "str | None" = None, timeout: float = 60.0) -> None:
        self.socket_path = socket_path or default_socket_path()
        self.timeout = timeout

    def request(self, payload: dict) -> dict:
        """Send one raw request dict and return the successful reply.

        Raises :class:`ServiceUnavailable` when nothing listens on the
        socket, :class:`~repro.service.protocol.ServiceBusy` on a
        backpressure rejection, and
        :class:`~repro.service.protocol.ServiceError` for any other
        failed reply.
        """
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            try:
                sock.connect(self.socket_path)
            except (FileNotFoundError, ConnectionRefusedError) as exc:
                raise ServiceUnavailable(
                    f"no repro daemon on {self.socket_path} "
                    f"({type(exc).__name__}); start one with 'repro serve'"
                ) from None
            send_message(sock, payload)
            try:
                reply = recv_message(sock)
            except EOFError:
                raise ServiceError(
                    "daemon closed the connection without a reply"
                ) from None
        finally:
            sock.close()
        return raise_for_reply(reply)

    # -- operations ------------------------------------------------------

    def ping(self) -> dict:
        """Liveness check; returns the daemon's pid and version."""
        return self.request({"op": "ping"})

    def status(self) -> dict:
        """The daemon's status dict (cache/pool/queue/counters)."""
        return self.request({"op": "status"})["status"]

    def shutdown(self) -> dict:
        """Ask the daemon to drain queued work and exit."""
        return self.request({"op": "shutdown"})

    @staticmethod
    def _execution_payload(execution: Any) -> "dict | None":
        """Serialise an ``execution=`` argument for the JSON protocol.

        Accepts an :class:`~repro.engine.spec.ExecutionSpec`, a dict in
        its ``to_dict`` form, an engine name, or ``None``.  Engine and
        observer *instances* are rejected by ``to_dict``: the protocol
        carries specs only.
        """
        if execution is None:
            return None
        from ..engine.spec import ExecutionSpec

        return ExecutionSpec.coerce(execution).to_dict()

    def run(
        self,
        algorithm: str,
        config: "dict | None" = None,
        *,
        execution: Any = None,
        cache: bool = True,
    ) -> dict:
        """Execute one catalog algorithm on the daemon.

        ``config`` carries the grid-point parameters (``n``, ``seed``,
        ``p``, ``k``, ...); ``execution`` is an
        :class:`~repro.engine.spec.ExecutionSpec` (or its dict form, or
        an engine name) whose fields are specs, never instances.  The
        daemon fills an unset engine with
        :data:`~repro.engine.spec.BATCH_ENGINE`.  Returns the reply dict
        with ``rounds``/bit totals/``common_output`` and ``cached``.
        """
        payload = {
            "op": "run",
            "algorithm": algorithm,
            "config": config or {},
            "execution": self._execution_payload(execution),
            "cache": cache,
        }
        return self.request(payload)

    def sweep(
        self,
        algorithm: str,
        configs: "list[dict]",
        *,
        execution: Any = None,
        workers: "int | None" = None,
        base_seed: int = 0,
        cache: bool = True,
    ) -> dict:
        """Run a grid of configs for one catalog algorithm on the daemon.

        ``execution`` follows the same rules as :meth:`run`.
        """
        payload = {
            "op": "sweep",
            "algorithm": algorithm,
            "configs": configs,
            "execution": self._execution_payload(execution),
            "workers": workers,
            "base_seed": base_seed,
            "cache": cache,
        }
        return self.request(payload)

    def sleep(self, seconds: float) -> dict:
        """Diagnostic: occupy one worker thread for ``seconds`` (capped
        server-side).  Exists so backpressure is deterministically
        testable."""
        return self.request({"op": "sleep", "seconds": seconds})

    def wait_until_ready(self, timeout: float = 10.0) -> dict:
        """Poll ``ping`` until the daemon answers or ``timeout`` expires."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.ping()
            except (ServiceUnavailable, ServiceBusy, OSError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
