"""Shard machinery of the shard-parallel columnar engine.

``ColumnarEngine(shards=N)`` runs a *shardable* array program as ``N``
instances, each owning a contiguous node range (:func:`shard_ranges`).
The coordinator loop lives in
:meth:`~repro.engine.columnar.ColumnarEngine._execute_sharded`; this
module provides what it drives:

* :class:`ShardTransport` — the pickle-protocol-5 codec for data
  crossing a shard boundary (out-of-band buffers, so array payloads
  move without an extra copy), and the pipe framing built on it;
* :class:`InlineColumnarShard` / :class:`ProcessColumnarShard` — a
  shard advanced in-process or in a forked worker that holds the
  program instance for the whole run (``fork`` means the program,
  inputs and closures are inherited by memory, never pickled);
* :class:`ColumnarShardPool` — the coordinator's handle on the shards,
  owning the shared-memory broadcast image;
* :func:`spawn_columnar_shards` — builds the pool for one run.
"""

from __future__ import annotations

import pickle
import struct
import warnings
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ..clique.errors import CliqueError

__all__ = [
    "ColumnarEmit",
    "ColumnarShardPool",
    "InlineColumnarShard",
    "ProcessColumnarShard",
    "ShardTransport",
    "shard_ranges",
    "spawn_columnar_shards",
]


class ShardTransport:
    """Pickle-protocol-5 codec for data crossing a shard boundary.

    ``encode`` splits an object into a pickle body plus out-of-band
    buffers (zero-copy for buffer-backed payloads such as numpy arrays);
    ``decode`` reassembles it.  Both the in-process loopback transport
    (``transport="pickle"``) and the :class:`ProcessColumnarShard` pipe
    protocol go through this codec, so the bytes that would cross a real machine
    boundary are exercised even in single-process runs.
    """

    @staticmethod
    def encode(obj: Any) -> tuple[bytes, list[bytes]]:
        """``obj`` as ``(body, buffers)``."""
        buffers: list[pickle.PickleBuffer] = []
        body = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        return body, [buf.raw().tobytes() for buf in buffers]

    @staticmethod
    def decode(body: bytes, buffers: Sequence[bytes]) -> Any:
        """Inverse of :meth:`encode`."""
        return pickle.loads(body, buffers=buffers)

    @classmethod
    def roundtrip(cls, obj: Any) -> Any:
        """Encode then decode (the in-process loopback transport)."""
        body, buffers = cls.encode(obj)
        return cls.decode(body, buffers)


def shard_ranges(n: int, shards: int) -> list[tuple[int, int]]:
    """Partition ``0..n-1`` into ``shards`` contiguous ``(lo, hi)`` ranges."""
    if shards < 1:
        raise CliqueError(f"need at least one shard, got {shards}")
    shards = min(shards, n)
    return [(i * n // shards, (i + 1) * n // shards) for i in range(shards)]


# -- pipe framing ------------------------------------------------------------


def _send_frames(conn: Any, obj: Any) -> None:
    """Ship ``obj`` over a pipe as pickle-5 frames (body + raw buffers)."""
    body, buffers = ShardTransport.encode(obj)
    conn.send_bytes(struct.pack("<I", len(buffers)))
    conn.send_bytes(body)
    for buf in buffers:
        conn.send_bytes(buf)


def _recv_frames(conn: Any) -> Any:
    """Inverse of :func:`_send_frames`."""
    (count,) = struct.unpack("<I", conn.recv_bytes())
    body = conn.recv_bytes()
    buffers = [conn.recv_bytes() for _ in range(count)]
    return ShardTransport.decode(body, buffers)


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else an equivalent CliqueError."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return CliqueError(f"{type(exc).__name__}: {exc}")


def _fork_context() -> Any:
    """The ``fork`` multiprocessing context, or ``None`` if unsupported
    (non-POSIX platforms, or inside a daemonic pool worker that may not
    have children of its own)."""
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return None
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


# -- columnar shards ---------------------------------------------------------
#
# Each shard holds a full ArrayContext restricted to an owned node range
# and runs its own instance of a *shardable* array program (see
# repro.engine.columnar.array_program).  Per-round pipe traffic is only
# the cross-shard message slices, never the program state (inherited by
# fork) and, past a small threshold, not the broadcast columns either
# (written once into a SharedMemory segment every worker maps).

_COL_I = np.int64
_COL_U = np.uint64

#: Broadcast columns smaller than this many entries ship as plain
#: pickle-5 frames; larger ones go through the shared-memory image
#: (written once instead of pickled per shard).  Tests lower it to
#: force the shared-memory path at toy sizes.
_SHM_MIN_BCAST = 64


class ColumnarEmit(NamedTuple):
    """One columnar shard's per-step report.

    ``columns`` is the shard's owned emission outbox in
    :meth:`~repro.engine.columnar.ArrayContext._collect_outbox` order
    ``(bs, bv, bw, us, ud, uv, uw)``; ``bulk`` the owned bulk-channel
    tuples.  ``value`` and ``counters`` are populated once ``finished``
    is set (the program instance returned).
    """

    finished: bool
    columns: tuple
    bulk: list
    value: Any
    counters: "dict | None"


class _ColumnarShardCore:
    """One shard's program instance, advanced step by step.

    Shared by the inline and forked executors: holds the shard's
    :class:`~repro.engine.columnar.ArrayContext` (full-``n`` metadata,
    owned range ``[lo, hi)``) and its array-program generator, and
    enforces the owned-sender contract on every emission.
    """

    def __init__(
        self,
        array: Callable,
        index: int,
        lo: int,
        hi: int,
        n: int,
        bandwidth: int,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
        check: str,
    ) -> None:
        from .columnar import ArrayContext

        self.index = index
        self.lo = lo
        self.hi = hi
        self._ctx = ArrayContext(
            n, bandwidth, inputs, auxes, check=check, lo=lo, hi=hi
        )
        self._gen = array(self._ctx)
        if not hasattr(self._gen, "send"):
            raise CliqueError(
                "array program must be a generator function "
                "(use 'yield' for round boundaries)"
            )
        self._finished = False
        self._value: Any = None

    def _advance(self) -> None:
        try:
            next(self._gen)
        except StopIteration as stop:
            self._finished = True
            self._value = stop.value

    def _emit(self) -> ColumnarEmit:
        ctx = self._ctx
        columns = ctx._collect_outbox()
        bulk = list(ctx._bulk)
        ctx._clear_outbox()
        self._check_owned(columns, bulk)
        if self._finished:
            counters = {
                key: np.asarray(col) for key, col in ctx._counters.items()
            }
            return ColumnarEmit(True, columns, bulk, self._value, counters)
        return ColumnarEmit(False, columns, bulk, None, None)

    def _check_owned(self, columns: tuple, bulk: list) -> None:
        """The shardable contract: every emission src is an owned node."""
        lo, hi = self.lo, self.hi
        bs, us = columns[0], columns[3]
        for kind, srcs in (("broadcast", bs), ("unicast", us)):
            if srcs.size and bool(((srcs < lo) | (srcs >= hi)).any()):
                bad = int(srcs[(srcs < lo) | (srcs >= hi)][0])
                raise CliqueError(
                    f"columnar shard {self.index} (nodes {lo}..{hi - 1}) "
                    f"queued a {kind} for non-owned sender {bad}; shardable "
                    f"array programs must emit only for their owned range"
                )
        for src, _dst, _value, _width in bulk:
            if not lo <= src < hi:
                raise CliqueError(
                    f"columnar shard {self.index} (nodes {lo}..{hi - 1}) "
                    f"queued a bulk send for non-owned sender {src}; "
                    f"shardable array programs must emit only for their "
                    f"owned range"
                )

    def first(self) -> ColumnarEmit:
        """Initial advance (the local-computation phase before round 1)."""
        self._advance()
        return self._emit()

    def step(
        self, round_no: int, bcast: tuple, coo: tuple, bulk: list
    ) -> ColumnarEmit:
        """Deliver one round's owned inbox slice and advance."""
        ctx = self._ctx
        ctx._in_bcast = bcast
        ctx._in_coo = coo
        ctx._in_bulk = list(bulk)
        ctx.round = round_no
        if not self._finished:
            self._advance()
        return self._emit()


def _resolve_bcast(desc: tuple, segments: dict) -> tuple:
    """Broadcast columns from a ``("raw", ...)`` / ``("shm", ...)`` descriptor.

    Shared-memory reads copy out of the segment immediately — the
    coordinator rewrites the image every round.
    """
    if desc[0] == "raw":
        return desc[1], desc[2], desc[3]
    _kind, name, m = desc
    seg = segments.get(name)
    if seg is None:
        seg = segments[name] = _attach_shm(name)
    buf = seg.buf
    bs = np.frombuffer(buf, dtype=_COL_I, count=m, offset=0).copy()
    bv = np.frombuffer(buf, dtype=_COL_U, count=m, offset=8 * m).copy()
    bw = np.frombuffer(buf, dtype=_COL_I, count=m, offset=16 * m).copy()
    return bs, bv, bw


def _attach_shm(name: str):
    """Attach an existing shared-memory segment without tracking it.

    The coordinator owns segment lifetime (it unlinks at pool close);
    attaching from a worker must not re-register the segment with the
    resource tracker or the worker's exit would double-unlink it.
    ``track=`` exists from Python 3.13; older versions need the
    register/unregister workaround.
    """
    from multiprocessing import resource_tracker, shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on python version
        seg = shared_memory.SharedMemory(name=name)
        try:
            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
        return seg


def _create_shm(size: int):
    """A fresh shared-memory segment, or ``None`` where unsupported."""
    try:
        from multiprocessing import shared_memory

        return shared_memory.SharedMemory(create=True, size=size)
    except Exception:  # pragma: no cover - platform without shm support
        return None


class InlineColumnarShard:
    """A columnar shard advanced in the coordinator's own process.

    With ``transport="pickle"`` both the posted round traffic and the
    emitted update round-trip through :class:`ShardTransport`, so the
    frames a process boundary would carry are exercised in-process —
    the configuration of the shard columns in CI's differential matrix.
    """

    def __init__(
        self,
        array: Callable,
        index: int,
        lo: int,
        hi: int,
        n: int,
        bandwidth: int,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
        check: str,
        transport: str = "direct",
    ) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self._pickle = transport == "pickle"
        self._core = _ColumnarShardCore(
            array, index, lo, hi, n, bandwidth, inputs, auxes, check
        )
        self._reply: ColumnarEmit | None = None

    def first(self) -> ColumnarEmit:
        """The shard's initial advance (before round 1)."""
        reply = self._core.first()
        return ShardTransport.roundtrip(reply) if self._pickle else reply

    def post(self, round_no: int, desc: tuple, coo: tuple, bulk: list) -> None:
        """Deliver one round's owned slice and advance immediately."""
        if self._pickle:
            round_no, desc, coo, bulk = ShardTransport.roundtrip(
                (round_no, desc, coo, bulk)
            )
        reply = self._core.step(round_no, (desc[1], desc[2], desc[3]), coo, bulk)
        self._reply = ShardTransport.roundtrip(reply) if self._pickle else reply

    def wait(self) -> ColumnarEmit:
        """The reply stashed by the immediately preceding :meth:`post`."""
        reply, self._reply = self._reply, None
        return reply

    def close(self, kill: bool = False) -> None:
        """Inline shards hold no external resources."""


def _columnar_worker_main(
    conn: Any,
    array: Callable,
    index: int,
    lo: int,
    hi: int,
    n: int,
    bandwidth: int,
    inputs: Sequence[Any],
    auxes: Sequence[Any],
    check: str,
    shm: Any,
) -> None:  # pragma: no cover - runs in a forked child
    """Child entry point: hold the shard's program instance, answer rounds."""
    segments: dict = {}
    if shm is not None:
        segments[shm.name] = shm
    try:
        try:
            core = _ColumnarShardCore(
                array, index, lo, hi, n, bandwidth, inputs, auxes, check
            )
            _send_frames(conn, ("ok", core.first()))
        except Exception as exc:
            _send_frames(conn, ("error", _picklable_error(exc)))
            return
        while True:
            try:
                message = _recv_frames(conn)
            except (EOFError, OSError):
                return
            op = message[0]
            if op == "round":
                _, round_no, desc, coo, bulk = message
                try:
                    bcast = _resolve_bcast(desc, segments)
                    _send_frames(
                        conn, ("ok", core.step(round_no, bcast, coo, bulk))
                    )
                except Exception as exc:
                    _send_frames(conn, ("error", _picklable_error(exc)))
                    return
            elif op == "close":
                return
            else:
                _send_frames(
                    conn,
                    ("error", CliqueError(f"unknown columnar shard op {op!r}")),
                )
                return
    finally:
        for seg in segments.values():
            try:
                seg.close()
            except Exception:
                pass


class ProcessColumnarShard:
    """A columnar shard advanced in a forked worker process.

    Forked *before* the program generator runs, so the array program,
    its closures and the resolved inputs are inherited by memory.  Per
    round the parent posts ``("round", round_no, bcast_desc, coo,
    bulk)`` — the owned destination slice as pickle-5 frames, the
    broadcast columns as either frames or a shared-memory descriptor —
    and the child replies with the shard's :class:`ColumnarEmit`.
    ``post``/``wait`` are split so the coordinator fans a round out to
    every worker before collecting any reply (that concurrency window
    is the multicore speedup).
    """

    def __init__(
        self,
        context: Any,
        array: Callable,
        index: int,
        lo: int,
        hi: int,
        n: int,
        bandwidth: int,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
        check: str,
        shm: Any,
    ) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self._conn, child_conn = context.Pipe()
        self._proc = context.Process(
            target=_columnar_worker_main,
            args=(
                child_conn,
                array,
                index,
                lo,
                hi,
                n,
                bandwidth,
                inputs,
                auxes,
                check,
                shm,
            ),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()

    def _receive(self) -> ColumnarEmit:
        try:
            kind, payload = _recv_frames(self._conn)
        except (EOFError, OSError) as exc:
            raise CliqueError(
                f"columnar shard {self.index} worker died mid-run "
                f"(exit code {self._proc.exitcode}): {exc}"
            ) from None
        if kind == "error":
            raise payload
        return payload

    def first(self) -> ColumnarEmit:
        """The child's initial advance (sent eagerly on startup)."""
        return self._receive()

    def post(self, round_no: int, desc: tuple, coo: tuple, bulk: list) -> None:
        """Ship one round's owned slice to the child (non-blocking)."""
        _send_frames(self._conn, ("round", round_no, desc, coo, bulk))

    def wait(self) -> ColumnarEmit:
        """Block for the child's reply to the posted round."""
        return self._receive()

    def close(self, kill: bool = False) -> None:
        """Tear the worker down (normal completion and error paths)."""
        if not kill and self._proc.is_alive():
            try:
                _send_frames(self._conn, ("close",))
            except OSError:  # pragma: no cover - pipe already gone
                pass
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._proc.is_alive():
            if kill:
                self._proc.terminate()
            self._proc.join(timeout=5.0)
            if self._proc.is_alive():  # pragma: no cover - terminate ignored
                self._proc.kill()
                self._proc.join(timeout=5.0)


class ColumnarShardPool:
    """The coordinator's handle on a set of columnar shards.

    Owns the shared-memory broadcast image: per round the broadcast
    columns are written once and every process worker reads its copy
    from the mapping, so only the per-shard unicast/bulk slices travel
    the pipes.  The image grows by reallocation when a round's
    broadcast traffic outgrows it (workers re-attach by name).
    """

    def __init__(
        self,
        shards: list,
        ranges: "list[tuple[int, int]]",
        shm: Any,
        segments: list,
    ) -> None:
        self.shards = shards
        self.ranges = ranges
        self._shm = shm
        self._segments = segments

    def first(self) -> "list[ColumnarEmit]":
        """Every shard's initial advance, in shard order."""
        return [shard.first() for shard in self.shards]

    def step(
        self,
        round_no: int,
        bcast: tuple,
        live: "list[int]",
        slices: "list[tuple]",
    ) -> "list[ColumnarEmit]":
        """Fan one round out to the live shards; replies in ``live`` order.

        ``slices[i]`` is ``(coo, bulk)`` — the owned destination slice
        of shard ``live[i]``.  All posts complete before any reply is
        awaited, so process workers compute the round concurrently.
        """
        desc = self._bcast_descriptor(*bcast)
        for index, (coo, bulk) in zip(live, slices):
            self.shards[index].post(round_no, desc, coo, bulk)
        return [self.shards[index].wait() for index in live]

    def _bcast_descriptor(self, bs, bv, bw) -> tuple:
        m = int(bs.size)
        if self._shm is None or m < _SHM_MIN_BCAST:
            return ("raw", bs, bv, bw)
        need = 24 * m
        if need > self._shm.size:
            seg = _create_shm(max(2 * need, 2 * self._shm.size))
            if seg is None:  # pragma: no cover - platform without shm
                self._shm = None
                return ("raw", bs, bv, bw)
            self._segments.append(seg)
            self._shm = seg
        buf = self._shm.buf
        np.frombuffer(buf, dtype=_COL_I, count=m, offset=0)[:] = bs
        np.frombuffer(buf, dtype=_COL_U, count=m, offset=8 * m)[:] = bv
        np.frombuffer(buf, dtype=_COL_I, count=m, offset=16 * m)[:] = bw
        return ("shm", self._shm.name, m)

    def close(self, kill: bool = False) -> None:
        """Close every shard, then release the shared-memory segments."""
        for shard in self.shards:
            shard.close(kill=kill)
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass
        self._segments = []
        self._shm = None


def spawn_columnar_shards(
    array: Callable,
    n: int,
    bandwidth: int,
    inputs: Sequence[Any],
    auxes: Sequence[Any],
    *,
    check: str,
    count: int,
    executor: str = "process",
    transport: str = "direct",
) -> ColumnarShardPool:
    """Build the shard pool for one shard-parallel columnar run.

    ``executor="process"`` forks one worker per shard (falling back to
    inline, with a :class:`RuntimeWarning`, where ``fork`` is
    unavailable) and preallocates the shared-memory broadcast image
    *before* forking so every worker inherits the mapping.
    """
    ranges = shard_ranges(n, count)
    context = None
    if executor == "process":
        context = _fork_context()
        if context is None:
            warnings.warn(
                "columnar engine: process executor needs the 'fork' start "
                "method outside a daemonic worker; falling back to inline "
                "shards",
                RuntimeWarning,
                stacklevel=4,
            )
            executor = "inline"
    shm = None
    segments: list = []
    if executor == "process":
        shm = _create_shm(24 * max(n, 1) + 4096)
        if shm is not None:
            segments.append(shm)
    shards: list = []
    try:
        for index, (lo, hi) in enumerate(ranges):
            if executor == "process":
                shards.append(
                    ProcessColumnarShard(
                        context,
                        array,
                        index,
                        lo,
                        hi,
                        n,
                        bandwidth,
                        inputs,
                        auxes,
                        check,
                        shm,
                    )
                )
            else:
                shards.append(
                    InlineColumnarShard(
                        array,
                        index,
                        lo,
                        hi,
                        n,
                        bandwidth,
                        inputs,
                        auxes,
                        check,
                        transport,
                    )
                )
    except BaseException:
        for shard in shards:
            shard.close(kill=True)
        for seg in segments:
            try:
                seg.close()
                seg.unlink()
            except Exception:
                pass
        raise
    return ColumnarShardPool(shards, ranges, shm, segments)
