"""The ``repro serve`` daemon.

A :class:`ReproServer` listens on a local socket and executes
run/sweep requests with state that stays warm across clients:

* the process-wide :class:`~repro.engine.pool.PersistentPool` — sweep
  workers fork once and survive between requests;
* a resident :class:`~repro.engine.cache.RunCache` with LRU eviction
  and admission control — repeated requests are answered from memory of
  prior work instead of recomputation;
* the imported algorithm/engine modules themselves — a remote ``run``
  skips the interpreter and import cold-start a fresh CLI invocation
  pays.

Lifecycle: an accept thread reads each connection's single request and
either answers control operations (``ping``/``status``/``shutdown``)
inline or enqueues work operations (``run``/``sweep``/``sleep``) on a
*bounded* queue drained by a fixed pool of worker threads.  When the
queue is full the request is refused immediately with a ``busy`` reply
(backpressure) rather than accepted into an unbounded backlog; clients
see :class:`~repro.service.protocol.ServiceBusy` and retry.  Shutdown
stops accepting, drains queued work, joins the workers and removes the
socket file.

Work requests are expressed against the algorithm catalog
(:data:`repro.engine.diff.CATALOG`).  A ``run`` is a one-point
:func:`~repro.engine.pool.run_sweep` — the same seed, cache key and
attempt loop as a point of an offline sweep — so entries written by
offline sweeps satisfy remote runs and vice versa.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from typing import Any

from ..clique.errors import CliqueError
from ..engine.cache import RunCache
from ..engine.diff import CATALOG, catalog_factory
from ..engine.pool import (
    aggregate_sweep_metrics,
    pool_stats,
    run_sweep,
    shutdown_pool,
)
from ..engine.spec import ExecutionSpec, batch_execution
from .protocol import (
    ServiceError,
    default_socket_path,
    recv_message,
    send_message,
)

__all__ = ["ReproServer", "serve"]

#: Hard cap on the diagnostic ``sleep`` op (it exists to make queue
#: saturation testable, not to park worker threads).
MAX_SLEEP_SECONDS = 5.0

#: Upper bound on per-request sweep worker processes.
MAX_SWEEP_WORKERS = 8

#: Execution settings that belong inside the request's ``"execution"``
#: object; a request carrying them flat is refused.
_FLAT_EXECUTION_KEYS = ("check", "engine", "fault_plan", "observer", "transcripts")


def _json_safe(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-encodable values.

    Numpy scalars become Python scalars, arrays become lists, unknown
    leaves fall back to ``repr`` — replies must always be framable.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in obj]
    if hasattr(obj, "item") and hasattr(obj, "dtype"):
        try:
            return _json_safe(obj.item())
        except (ValueError, AttributeError):
            return _json_safe(obj.tolist())
    return repr(obj)


class ReproServer:
    """Long-running local-socket service wrapping the run substrate.

    Parameters
    ----------
    socket_path:
        Where to listen; defaults to
        :func:`~repro.service.protocol.default_socket_path`.
    workers:
        Worker *threads* draining the request queue — the daemon's
        concurrency level for in-flight requests (sweeps additionally
        fan out to the warm process pool).
    queue_size:
        Bound on requests accepted but not yet picked up by a worker;
        the knob behind the ``busy`` backpressure reply.
    cache_root:
        Directory of the resident :class:`RunCache` (``None`` uses the
        cache's default location).
    cache_max_entries / cache_max_entry_bytes:
        LRU and admission bounds passed through to the cache.
    """

    def __init__(
        self,
        socket_path: "str | None" = None,
        *,
        workers: int = 4,
        queue_size: int = 32,
        cache_root: "str | os.PathLike | None" = None,
        cache_max_entries: "int | None" = None,
        cache_max_entry_bytes: "int | None" = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise ServiceError(f"queue_size must be >= 1, got {queue_size}")
        self.socket_path = socket_path or default_socket_path()
        self.workers = workers
        self.queue_size = queue_size
        self.cache = RunCache(
            cache_root,
            max_entries=cache_max_entries,
            max_entry_bytes=cache_max_entry_bytes,
        )
        self._queue: "queue.Queue[tuple[socket.socket, dict]]" = queue.Queue(
            maxsize=queue_size
        )
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._listener: "socket.socket | None" = None
        self._started_at: "float | None" = None
        self._lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "completed": 0,
            "errors": 0,
            "busy_rejections": 0,
            "peak_queue_depth": 0,
            "in_flight": 0,
        }

    # -- lifecycle -------------------------------------------------------

    def _claim_socket(self) -> socket.socket:
        """Bind the listener, replacing a stale socket file if the
        previous daemon died without cleanup; refuse to displace a live
        one."""
        if os.path.exists(self.socket_path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(1.0)
                probe.connect(self.socket_path)
            except OSError:
                os.unlink(self.socket_path)  # stale leftover
            else:
                probe.close()
                raise ServiceError(
                    f"a daemon is already listening on {self.socket_path}"
                )
            finally:
                probe.close()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(self.queue_size + self.workers)
        listener.settimeout(0.2)
        return listener

    def start(self) -> None:
        """Bind the socket and start the accept and worker threads."""
        if self._listener is not None:
            raise ServiceError("server already started")
        self._listener = self._claim_socket()
        self._started_at = time.monotonic()
        self._stop.clear()
        accept = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        accept.start()
        self._threads = [accept]
        for index in range(self.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._threads.append(worker)

    def stop(self) -> None:
        """Stop accepting, drain queued work, join threads, clean up."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        shutdown_pool()

    def serve_forever(self) -> None:
        """:meth:`start`, then block until a ``shutdown`` request (or
        :meth:`stop` from another thread) ends the daemon."""
        self.start()
        try:
            while not self._stop.wait(0.2):
                pass
        finally:
            self.stop()

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- threads ---------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._receive(conn)

    def _receive(self, conn: socket.socket) -> None:
        """Read one request; answer control ops inline, queue work ops."""
        try:
            conn.settimeout(10.0)
            request = recv_message(conn)
        except (OSError, EOFError, ServiceError):
            conn.close()
            return
        with self._lock:
            self._counters["requests"] += 1
        op = request.get("op")
        if op in ("ping", "status", "shutdown"):
            self._reply(conn, self._handle_control(op))
            if op == "shutdown":
                self._stop.set()
            return
        try:
            self._queue.put_nowait((conn, request))
        except queue.Full:
            with self._lock:
                self._counters["busy_rejections"] += 1
            self._reply(
                conn,
                {
                    "ok": False,
                    "error": "busy",
                    "message": (
                        f"request queue is full "
                        f"({self.queue_size} pending); retry later"
                    ),
                },
            )
            return
        with self._lock:
            depth = self._queue.qsize()
            if depth > self._counters["peak_queue_depth"]:
                self._counters["peak_queue_depth"] = depth

    def _worker_loop(self) -> None:
        while True:
            try:
                conn, request = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            with self._lock:
                self._counters["in_flight"] += 1
            try:
                reply = self._handle_work(request)
                with self._lock:
                    self._counters["completed"] += 1
            except Exception as exc:
                with self._lock:
                    self._counters["errors"] += 1
                reply = {
                    "ok": False,
                    "error": "error",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            finally:
                with self._lock:
                    self._counters["in_flight"] -= 1
            self._reply(conn, reply)

    def _reply(self, conn: socket.socket, payload: dict) -> None:
        try:
            send_message(conn, payload)
        except OSError:  # pragma: no cover - client went away
            pass
        finally:
            conn.close()

    # -- request handling ------------------------------------------------

    def status(self) -> dict:
        """The daemon's state (the ``status`` op's payload)."""
        with self._lock:
            counters = dict(self._counters)
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return {
            "pid": os.getpid(),
            "socket": self.socket_path,
            "uptime_seconds": round(uptime, 3),
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.queue_size,
            "counters": counters,
            "cache": self.cache.stats(),
            "pool": pool_stats(),
        }

    def _handle_control(self, op: str) -> dict:
        if op == "ping":
            from .. import __version__

            return {"ok": True, "pid": os.getpid(), "version": __version__}
        if op == "status":
            return {"ok": True, "status": self.status()}
        return {"ok": True, "stopping": True}  # shutdown

    def _handle_work(self, request: dict) -> dict:
        op = request.get("op")
        if op == "run":
            return self._handle_run(request)
        if op == "sweep":
            return self._handle_sweep(request)
        if op == "sleep":
            seconds = min(float(request.get("seconds", 0.0)), MAX_SLEEP_SECONDS)
            time.sleep(max(0.0, seconds))
            return {"ok": True, "slept": seconds}
        raise ServiceError(f"unknown op {op!r}")

    def _catalog_config(self, request: dict) -> dict:
        algorithm = request.get("algorithm")
        if algorithm not in CATALOG:
            raise ServiceError(
                f"unknown algorithm {algorithm!r}; known: {sorted(CATALOG)}"
            )
        config = dict(request.get("config") or {})
        config["algorithm"] = algorithm
        return config

    def _request_execution(self, request: dict) -> ExecutionSpec:
        """The request's ``"execution"`` object (the
        :meth:`ExecutionSpec.to_dict` form) as a spec; an unset engine
        is :data:`~repro.engine.spec.BATCH_ENGINE`."""
        flat = [key for key in _FLAT_EXECUTION_KEYS if key in request]
        if flat:
            raise ServiceError(
                f"request keys {flat} are not part of the protocol; put "
                f"them in the 'execution' object"
            )
        raw = request.get("execution")
        if raw is not None and not isinstance(raw, dict):
            raise ServiceError(
                f"'execution' must be an object (the ExecutionSpec "
                f"to_dict form), got {type(raw).__name__}"
            )
        try:
            spec = batch_execution(raw)
        except CliqueError as exc:
            raise ServiceError(str(exc)) from None
        if spec.transcripts is not None:
            raise ServiceError(
                "transcript recording is not available over the service "
                "protocol (transcripts do not serialise); drop the "
                "'transcripts' field"
            )
        return spec

    def _handle_run(self, request: dict) -> dict:
        use_cache = bool(request.get("cache", True))
        (outcome,) = run_sweep(
            catalog_factory,
            [self._catalog_config(request)],
            workers=1,
            execution=self._request_execution(request),
            cache=self.cache if use_cache else None,
            on_error="raise",
        )
        result = outcome.result
        try:
            common = result.common_output()
        except CliqueError:
            common = None  # per-node outputs (e.g. apsp distance rows)
        reply = {
            "ok": True,
            "cached": outcome.from_cache,
            "config": _json_safe(outcome.config),
            "rounds": result.rounds,
            "total_message_bits": result.total_message_bits,
            "bulk_bits": result.bulk_bits,
            "common_output": _json_safe(common),
            "value": _json_safe(outcome.value),
        }
        if result.metrics is not None:
            reply["metrics"] = _json_safe(result.metrics.summary())
        return reply

    def _handle_sweep(self, request: dict) -> dict:
        base = self._catalog_config(request)
        base.pop("algorithm")
        raw_configs = request.get("configs")
        if not isinstance(raw_configs, list) or not raw_configs:
            raise ServiceError("sweep needs a non-empty 'configs' list")
        configs = []
        for point in raw_configs:
            if not isinstance(point, dict):
                raise ServiceError("every sweep config must be an object")
            merged = dict(base)
            merged.update(point)
            merged["algorithm"] = request["algorithm"]
            configs.append(merged)
        workers = request.get("workers")
        if workers is not None:
            workers = max(1, min(int(workers), MAX_SWEEP_WORKERS))
        use_cache = bool(request.get("cache", True))
        outcomes = run_sweep(
            catalog_factory,
            configs,
            workers=workers,
            execution=self._request_execution(request),
            cache=self.cache if use_cache else None,
            base_seed=int(request.get("base_seed", 0)),
        )
        failed = [o for o in outcomes if o.failed]
        return {
            "ok": True,
            "points": len(outcomes),
            "from_cache": sum(1 for o in outcomes if o.from_cache),
            "failed": len(failed),
            "rounds": [
                o.result.rounds if o.result is not None else None
                for o in outcomes
            ],
            "summary": _json_safe(aggregate_sweep_metrics(outcomes)),
        }


def serve(
    socket_path: "str | None" = None,
    *,
    workers: int = 4,
    queue_size: int = 32,
    cache_root: "str | os.PathLike | None" = None,
    cache_max_entries: "int | None" = None,
    cache_max_entry_bytes: "int | None" = None,
) -> None:
    """Run a :class:`ReproServer` in the foreground until shut down."""
    ReproServer(
        socket_path,
        workers=workers,
        queue_size=queue_size,
        cache_root=cache_root,
        cache_max_entries=cache_max_entries,
        cache_max_entry_bytes=cache_max_entry_bytes,
    ).serve_forever()
