"""Wire protocol of the ``repro serve`` daemon.

Requests and replies are JSON objects framed with a 4-byte little-endian
length prefix over a local (``AF_UNIX``) stream socket.  One connection
carries one request/reply pair; concurrency comes from concurrent
connections, not multiplexing — which keeps both ends trivially correct
and lets the server apply backpressure per request.

Every request carries an ``"op"`` key; every reply an ``"ok"`` boolean.
A failed reply has ``"error"`` (``"busy"`` for backpressure rejections,
``"error"`` otherwise) and a human-readable ``"message"``;
:func:`raise_for_reply` maps these onto :class:`ServiceBusy` /
:class:`ServiceError`.

Work requests name a catalog algorithm.  ``run`` carries a ``"config"``
object (``n``, ``seed``, ...) and ``sweep`` a ``"configs"`` list, plus
``"workers"`` and ``"base_seed"``; both take ``"cache"`` (default true)
and an optional ``"execution"`` object, the
:meth:`~repro.engine.spec.ExecutionSpec.to_dict` form (``engine``,
``check``, ``observer``, ``fault_plan``).  An unset engine is
:data:`~repro.engine.spec.BATCH_ENGINE`.  Execution settings sent as
flat request keys are refused with an error naming ``"execution"``.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from typing import Any

__all__ = [
    "MAX_MESSAGE_BYTES",
    "SOCKET_ENV",
    "ServiceBusy",
    "ServiceError",
    "default_socket_path",
    "raise_for_reply",
    "recv_message",
    "send_message",
]

#: Environment variable overriding the default socket location.
SOCKET_ENV = "REPRO_SERVICE_SOCKET"

#: Upper bound on one framed message; a peer announcing more is treated
#: as corrupt (protects both ends from a garbage length prefix).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ServiceError(RuntimeError):
    """A service request failed (server-side error or protocol problem)."""


class ServiceBusy(ServiceError):
    """The daemon's request queue is full — back off and retry."""


def default_socket_path() -> str:
    """The socket path used when none is given: ``$REPRO_SERVICE_SOCKET``
    or a per-user file under the system temp directory."""
    env = os.environ.get(SOCKET_ENV)
    if env:
        return env
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-serve-{uid}.sock")


def send_message(sock: Any, payload: dict) -> None:
    """Frame ``payload`` as length-prefixed JSON and send it whole."""
    data = json.dumps(payload, separators=(",", ":"), default=repr).encode()
    if len(data) > MAX_MESSAGE_BYTES:
        raise ServiceError(
            f"message of {len(data)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte frame limit"
        )
    sock.sendall(struct.pack("<I", len(data)) + data)


def _recv_exact(sock: Any, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise EOFError(
                f"peer closed the connection with {remaining} of {size} "
                f"bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: Any) -> dict:
    """Read one framed JSON message; raises :class:`EOFError` when the
    peer closed the connection and :class:`ServiceError` on a corrupt
    frame."""
    (size,) = struct.unpack("<I", _recv_exact(sock, 4))
    if size > MAX_MESSAGE_BYTES:
        raise ServiceError(
            f"peer announced a {size}-byte frame (limit {MAX_MESSAGE_BYTES})"
        )
    try:
        payload = json.loads(_recv_exact(sock, size))
    except ValueError as exc:
        raise ServiceError(f"undecodable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ServiceError(
            f"frame must decode to an object, got {type(payload).__name__}"
        )
    return payload


def raise_for_reply(reply: dict) -> dict:
    """Pass a successful reply through; raise the matching exception
    (:class:`ServiceBusy` or :class:`ServiceError`) for a failed one."""
    if reply.get("ok"):
        return reply
    message = reply.get("message", "service request failed")
    if reply.get("error") == "busy":
        raise ServiceBusy(message)
    raise ServiceError(message)
