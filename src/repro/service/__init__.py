"""Service layer: the long-running ``repro serve`` daemon.

:mod:`repro.service.server` / :mod:`repro.service.client` form a
local-socket service that keeps the warm worker pool and a resident
:class:`~repro.engine.cache.RunCache` alive across requests, so clients
(``repro run --remote``) skip both interpreter cold-start and
recomputation; :mod:`repro.service.protocol` is their wire format.

This package imports :mod:`repro.engine`, :mod:`repro.obs` and
:mod:`repro.faults`; nothing below it imports back.
"""

from .client import ServiceClient, ServiceUnavailable
from .protocol import (
    ServiceBusy,
    ServiceError,
    default_socket_path,
    recv_message,
    send_message,
)
from .server import ReproServer, serve

__all__ = [
    "ReproServer",
    "ServiceBusy",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "default_socket_path",
    "recv_message",
    "send_message",
    "serve",
]
