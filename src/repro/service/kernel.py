"""Sharded discrete-event coroutine kernel: the ``"sharded"`` backend.

The reference and fast engines drive all ``n`` node generators from one
flat loop.  This module restructures execution for scale-out: nodes
become cheap coroutine *tasks* scheduled by a round-synchronous
:class:`Kernel` (in the spirit of usim's discrete-event kernel — tasks
``yield`` to sleep until the next round barrier), and the node range is
partitioned into :class:`InlineShard`/:class:`ProcessShard` units that
advance independently between barriers:

* each round, every shard advances its live tasks to their next
  ``yield`` and drains their queued messages into one update;
* the coordinator (:class:`ShardedEngine`) delivers the round through
  the shared explicit-delivery core (:mod:`repro.engine.delivery`) —
  fault injection and bit accounting exactly like the fast engine —
  then hands each shard its nodes' inboxes;
* shard boundary crossings use :class:`ShardTransport` — pickle
  protocol 5 with out-of-band buffers — so payload bytes move without
  an extra copy; ``ProcessShard`` speaks the same codec over a pipe to
  a forked worker that holds its node generators for the whole run
  (``fork`` means the program, inputs and closures are inherited by
  memory, never pickled).

The backend registers as ``engine="sharded"`` (resolved lazily by
:func:`repro.engine.base.resolve_engine` to keep the layering acyclic)
and must stay observationally equivalent to the reference engine —
``tests/service/test_kernel.py`` runs the full
:mod:`repro.engine.diff` catalog against it.
"""

from __future__ import annotations

import pickle
import struct
import warnings
from collections import deque
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ..clique.bits import BitString
from ..clique.errors import CliqueError, RoundLimitExceeded
from ..clique.network import NodeProgram, RunResult
from ..clique.transcript import RoundRecord, Transcript
from ..engine.base import (
    CHECK_LEVELS,
    Engine,
    canonical_check,
    register_engine,
)
from ..engine.delivery import deliver_rows, drain_entries, sender_rows
from ..engine.fast import _FastNode
from ..engine.pool import RunSpec
from ..faults import FaultInjector, resolve_fault_plan
from ..obs import RoundStats, resolve_observer
from ..obs.profile import PhaseTimer

__all__ = [
    "ColumnarEmit",
    "ColumnarShardPool",
    "InlineColumnarShard",
    "InlineShard",
    "Kernel",
    "ProcessColumnarShard",
    "ProcessShard",
    "ShardTransport",
    "ShardedEngine",
    "fanout_spec",
    "shard_ranges",
    "spawn_columnar_shards",
]

#: Default shard count when the engine is built without an explicit one.
DEFAULT_SHARDS = 4

#: One shard's per-round report: ``(halted, entries)`` where ``halted``
#: is ``[(node, output)]`` for tasks that returned this step and
#: ``entries`` is ``[(src, dst, payload, is_bulk)]`` in queue order
#: (``dst == -1`` marks an unexpanded broadcast).
ShardUpdate = tuple


class Kernel:
    """Round-synchronous discrete-event scheduler for node coroutines.

    Tasks are generators; ``yield`` suspends a task until the next round
    barrier, ``return value`` finishes it.  The kernel keeps the wait
    queue in spawn order, so with tasks spawned by ascending node id the
    advance order matches the lockstep engines (``sorted(live)``).
    """

    __slots__ = ("now", "_waiting")

    def __init__(self) -> None:
        #: The current round clock (advanced by :meth:`step`).
        self.now = 0
        self._waiting: deque[tuple[int, Any]] = deque()

    def spawn(self, key: int, coroutine: Any) -> None:
        """Add a task; it first runs at the next :meth:`step`."""
        if not hasattr(coroutine, "send"):
            raise CliqueError(
                "node program must be a generator function "
                "(use 'yield' for round boundaries)"
            )
        self._waiting.append((key, coroutine))

    def __len__(self) -> int:
        """Number of tasks still waiting on the next barrier."""
        return len(self._waiting)

    def step(self, round_no: int) -> list[tuple[int, Any]]:
        """Advance the clock to ``round_no`` and run every waiting task
        once (to its next ``yield``); returns ``(key, return value)``
        for the tasks that finished during this step."""
        self.now = round_no
        ready = self._waiting
        self._waiting = deque()
        finished: list[tuple[int, Any]] = []
        while ready:
            key, coroutine = ready.popleft()
            try:
                next(coroutine)
            except StopIteration as stop:
                finished.append((key, stop.value))
            else:
                self._waiting.append((key, coroutine))
        return finished


class ShardTransport:
    """Pickle-protocol-5 codec for data crossing a shard boundary.

    ``encode`` splits an object into a pickle body plus out-of-band
    buffers (zero-copy for buffer-backed payloads such as numpy arrays);
    ``decode`` reassembles it.  Both the in-process loopback transport
    (``transport="pickle"``) and the :class:`ProcessShard` pipe protocol
    go through this codec, so the bytes that would cross a real machine
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


def _build_nodes(
    program: NodeProgram,
    lo: int,
    hi: int,
    n: int,
    bandwidth: int,
    inputs: Sequence[Any],
    auxes: Sequence[Any],
    check: str,
) -> tuple[dict[int, _FastNode], Kernel]:
    """One shard's nodes and kernel, tasks spawned in node order."""
    nodes: dict[int, _FastNode] = {}
    kernel = Kernel()
    for v in range(lo, hi):
        node = _FastNode(v, n, bandwidth, inputs[v], auxes[v], check)
        nodes[v] = node
        kernel.spawn(v, program(node))
    return nodes, kernel


class InlineShard:
    """A shard advanced in the coordinator's own process.

    With ``transport="pickle"`` every update is round-tripped through
    :class:`ShardTransport` before the coordinator reads it, so the
    serialised form is validated without a process boundary.
    """

    def __init__(
        self,
        index: int,
        lo: int,
        hi: int,
        program: NodeProgram,
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
        self._full_check = check == "full"
        self._pickle = transport == "pickle"
        self._nodes, self._kernel = _build_nodes(
            program, lo, hi, n, bandwidth, inputs, auxes, check
        )

    def step(self, round_no: int, inbound: "list[dict] | None") -> ShardUpdate:
        """Deliver ``inbound`` (one inbox dict per node in ``lo..hi-1``,
        or ``None`` before the first round), advance every live task,
        and return the shard's update."""
        if inbound is not None:
            for offset, v in enumerate(range(self.lo, self.hi)):
                node = self._nodes[v]
                node._inbox = inbound[offset]
                node._round = round_no
        halted = self._kernel.step(round_no)
        entries = drain_entries(self._nodes.items(), self._full_check)
        for v, _ in halted:
            self._nodes[v]._halted = True
        update = (halted, entries)
        if self._pickle:
            update = ShardTransport.roundtrip(update)
        return update

    def finish(self) -> dict[int, dict]:
        """Per-node measurement counters, keyed by absolute node id."""
        return {v: dict(node.counters) for v, node in self._nodes.items()}

    def close(self, kill: bool = False) -> None:
        """Inline shards hold no external resources."""


# -- process shards ----------------------------------------------------------


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


def _shard_worker_main(
    conn: Any,
    index: int,
    lo: int,
    hi: int,
    program: NodeProgram,
    n: int,
    bandwidth: int,
    inputs: Sequence[Any],
    auxes: Sequence[Any],
    check: str,
) -> None:  # pragma: no cover - runs in a forked child
    """Child entry point: hold the shard's generators, answer step/finish."""
    try:
        shard = InlineShard(index, lo, hi, program, n, bandwidth, inputs, auxes, check)
    except Exception as exc:
        _send_frames(conn, ("error", _picklable_error(exc)))
        return
    while True:
        message = _recv_frames(conn)
        op = message[0]
        if op == "step":
            _, round_no, inbound = message
            try:
                update = shard.step(round_no, inbound)
                _send_frames(conn, ("ok", update))
            except Exception as exc:
                _send_frames(conn, ("error", _picklable_error(exc)))
                return
        elif op == "finish":
            _send_frames(conn, ("counters", shard.finish()))
            return
        else:
            _send_frames(conn, ("error", CliqueError(f"unknown shard op {op!r}")))
            return


class ProcessShard:
    """A shard advanced in a forked worker process.

    The child is forked *before* any generator runs, so the program,
    its closures and the node inputs are inherited by memory — nothing
    about the program has to be picklable.  Only round traffic crosses
    the pipe, as :class:`ShardTransport` frames: the parent sends
    ``("step", round, inboxes)``, the child replies with the shard
    update; ``("finish",)`` returns the counters and ends the child.
    """

    def __init__(
        self,
        context: Any,
        index: int,
        lo: int,
        hi: int,
        program: NodeProgram,
        n: int,
        bandwidth: int,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
        check: str,
    ) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self._conn, child_conn = context.Pipe()
        self._proc = context.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                index,
                lo,
                hi,
                program,
                n,
                bandwidth,
                inputs,
                auxes,
                check,
            ),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()

    def _request(self, message: tuple) -> Any:
        _send_frames(self._conn, message)
        try:
            kind, payload = _recv_frames(self._conn)
        except (EOFError, OSError) as exc:
            raise CliqueError(
                f"shard {self.index} worker died mid-run "
                f"(exit code {self._proc.exitcode}): {exc}"
            ) from None
        if kind == "error":
            raise payload
        return payload

    def step(self, round_no: int, inbound: "list[dict] | None") -> ShardUpdate:
        """Remote :meth:`InlineShard.step` over the pipe."""
        return self._request(("step", round_no, inbound))

    def finish(self) -> dict[int, dict]:
        """Remote :meth:`InlineShard.finish`; the child exits after."""
        counters = self._request(("finish",))
        self._proc.join(timeout=5.0)
        return counters

    def close(self, kill: bool = False) -> None:
        """Tear the worker down (used on error paths)."""
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
# The sharded kernel hosting columnar shards: each shard holds a full
# ArrayContext restricted to an owned node range and runs its own
# instance of a *shardable* array program (see
# repro.engine.columnar.array_program).  The coordinator loop lives in
# ColumnarEngine._execute_sharded; this section provides the shard
# units, the forked worker protocol and the shared-memory broadcast
# image — per-round pipe traffic is only the cross-shard message
# slices, never the program state (inherited by fork) and, past a small
# threshold, not the broadcast columns either (written once into a
# SharedMemory segment every worker maps).

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
        from ..engine.columnar import ArrayContext

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
    the configuration the ``diff_columnar`` shards axis gates on.
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


@register_engine
class ShardedEngine(Engine):
    """Shard-parallel lockstep backend over the coroutine kernel.

    Parameters
    ----------
    check:
        Validation level (``"full"``, ``"bandwidth"`` — the default —
        or ``"off"``), with the same send-time semantics as the fast
        engine at each level.
    shards:
        Shard count; ``None`` means :data:`DEFAULT_SHARDS`, clamped
        to ``n``.  Results are identical for every shard count.
    executor:
        ``"inline"`` (default) advances every shard in-process;
        ``"process"`` forks one worker per shard and exchanges round
        traffic as pickle-5 frames.  Falls back to inline (with a
        :class:`RuntimeWarning`) where ``fork`` is unavailable.
    transport:
        ``"direct"`` hands inline shard updates over as objects;
        ``"pickle"`` round-trips them through :class:`ShardTransport`
        (process shards always use the pickled framing).
    record_transcripts:
        Force transcript recording even when the clique does not ask
        for it.

    Like the fast engine, the backend supports the plain congested
    clique only (broadcast-only cliques and CONGEST topologies need the
    reference engine).
    """

    name = "sharded"

    def __init__(
        self,
        check: str = "bandwidth",
        shards: "int | None" = None,
        executor: str = "inline",
        transport: str = "direct",
        record_transcripts: bool = False,
    ) -> None:
        check = canonical_check(check)
        if check not in CHECK_LEVELS:
            raise CliqueError(f"check must be one of {CHECK_LEVELS}, got {check!r}")
        if executor not in ("inline", "process"):
            raise CliqueError(
                f"executor must be 'inline' or 'process', got {executor!r}"
            )
        if transport not in ("direct", "pickle"):
            raise CliqueError(
                f"transport must be 'direct' or 'pickle', got {transport!r}"
            )
        if shards is not None and shards < 1:
            raise CliqueError(f"shards must be >= 1, got {shards}")
        self.check = check
        self.shards = shards
        self.executor = executor
        self.transport = transport
        self.record_transcripts = record_transcripts

    def describe(self) -> dict:
        """Engine configuration (cache key component)."""
        return {
            "engine": self.name,
            "check": self.check,
            "shards": self.shards,
            "executor": self.executor,
            "transport": self.transport,
        }

    def _spawn_shards(
        self,
        program: NodeProgram,
        n: int,
        bandwidth: int,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
    ) -> list:
        ranges = shard_ranges(n, self.shards or DEFAULT_SHARDS)
        executor = self.executor
        context = None
        if executor == "process":
            context = _fork_context()
            if context is None:
                warnings.warn(
                    "sharded engine: process executor needs the 'fork' "
                    "start method outside a daemonic worker; falling back "
                    "to inline shards",
                    RuntimeWarning,
                    stacklevel=3,
                )
                executor = "inline"
        shards: list = []
        try:
            for index, (lo, hi) in enumerate(ranges):
                if executor == "process":
                    shards.append(
                        ProcessShard(
                            context,
                            index,
                            lo,
                            hi,
                            program,
                            n,
                            bandwidth,
                            inputs,
                            auxes,
                            self.check,
                        )
                    )
                else:
                    shards.append(
                        InlineShard(
                            index,
                            lo,
                            hi,
                            program,
                            n,
                            bandwidth,
                            inputs,
                            auxes,
                            self.check,
                            self.transport,
                        )
                    )
        except BaseException:
            for shard in shards:
                shard.close(kill=True)
            raise
        return shards

    def execute(
        self,
        clique,
        program: NodeProgram,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
        *,
        observer: Any = None,
        transcripts: bool | None = None,
        fault_plan: Any = None,
    ) -> RunResult:
        """Run ``program`` with the node range split across shards."""
        if clique.broadcast_only or clique.topology is not None:
            raise CliqueError(
                "the sharded engine supports the plain congested clique "
                "only; use the reference engine for broadcast-only "
                "cliques or CONGEST topologies"
            )
        n = clique.n
        obs = resolve_observer(observer)
        plan = resolve_fault_plan(fault_plan)
        injector = FaultInjector(plan, n, obs) if plan is not None else None
        per_message = obs is not None and obs.wants_messages
        track_halts = obs is not None and obs.wants_halts
        timer = PhaseTimer() if obs is not None and obs.wants_timing else None
        record = (
            transcripts
            if transcripts is not None
            else (self.record_transcripts or clique.record_transcripts)
        )
        if timer is not None:
            timer.start("spawn")
        shards = self._spawn_shards(program, n, clique.bandwidth, inputs, auxes)
        outputs: dict[int, Any] = {}
        records: list[list[RoundRecord]] = [[] for _ in range(n)]
        live = n
        rounds = 0
        total_bits = 0
        bulk_bits = 0
        sent_bits = [0] * n
        received_bits = [0] * n
        if obs is not None:
            obs.on_run_start(n=n, bandwidth=clique.bandwidth, engine=self.name)

        def absorb(updates: list[ShardUpdate]) -> list:
            """Record halts; return the concatenated message entries."""
            nonlocal live
            entries: list = []
            for halted, shard_entries in updates:
                for v, value in halted:
                    outputs[v] = value
                    live -= 1
                    if track_halts:
                        obs.on_halt(round=rounds, node=v)
                entries.extend(shard_entries)
            return entries

        try:
            # Initial local-computation phase (before the first round).
            if timer is not None:
                timer.start("advance")
            updates = [shard.step(0, None) for shard in shards]
            if timer is not None:
                obs.on_phases(round=0, seconds=timer.flush())
            entries = absorb(updates)

            while live or entries:
                if rounds >= clique.max_rounds:
                    raise RoundLimitExceeded(clique.max_rounds)
                this_round = rounds + 1

                # Deliver through the shared explicit-delivery core.
                if timer is not None:
                    timer.start("deliver")
                inboxes: list[dict[int, BitString]] = [{} for _ in range(n)]
                round_sent = [0] * n
                round_received = [0] * n
                rows, counts = sender_rows(entries, n, round_sent)
                round_msg_bits, round_bulk_bits, unicasts, broadcasts, bulks = counts
                sent_records = [{} for _ in range(n)] if record else None
                deliver_rows(
                    this_round,
                    rows,
                    inboxes,
                    round_received,
                    injector=injector,
                    sent_records=sent_records,
                    obs=obs if per_message else None,
                )
                total_bits += round_msg_bits
                bulk_bits += round_bulk_bits
                for v in range(n):
                    sent_bits[v] += round_sent[v]
                    received_bits[v] += round_received[v]
                rounds = this_round
                if obs is not None:
                    obs.on_round(
                        RoundStats(
                            round=this_round,
                            unicast_messages=unicasts,
                            broadcast_messages=broadcasts,
                            bulk_messages=bulks,
                            message_bits=round_msg_bits,
                            bulk_bits=round_bulk_bits,
                            sent_bits=round_sent,
                            received_bits=round_received,
                        )
                    )
                if record:
                    for v in range(n):
                        records[v].append(
                            RoundRecord(
                                sent=sent_records[v],
                                received=dict(inboxes[v]),
                            )
                        )

                # Advance: hand each shard its inboxes, collect updates.
                if timer is not None:
                    timer.start("advance")
                updates = [
                    shard.step(this_round, inboxes[shard.lo : shard.hi])
                    for shard in shards
                ]
                if timer is not None:
                    obs.on_phases(round=this_round, seconds=timer.flush())
                entries = absorb(updates)

            all_counters: dict[int, dict] = {}
            for shard in shards:
                all_counters.update(shard.finish())
        except BaseException:
            for shard in shards:
                shard.close(kill=True)
            raise
        for shard in shards:
            shard.close()

        out_transcripts = None
        if record:
            out_transcripts = tuple(
                Transcript(node=v, n=n, rounds=tuple(records[v]))
                for v in range(n)
            )
        counters = tuple(all_counters[v] for v in range(n))
        metrics = None
        if obs is not None:
            obs.on_run_end(rounds=rounds, counters=counters)
            metrics = obs.run_metrics()
        return RunResult(
            outputs=outputs,
            rounds=rounds,
            total_message_bits=total_bits,
            bulk_bits=bulk_bits,
            sent_bits=tuple(sent_bits),
            received_bits=tuple(received_bits),
            counters=counters,
            transcripts=out_transcripts,
            metrics=metrics,
        )


def _fanout_program(senders: int, rounds: int) -> Callable:
    """A broadcast stress program: nodes ``0..senders-1`` broadcast one
    bit per round, the rest idle — per-round load scales with
    ``senders * n`` while the task count scales with ``n``."""

    def prog(node):
        payload = BitString(node.id % 2, 1)
        for _ in range(rounds):
            if node.id < senders:
                node.send_to_all(payload)
            yield
        return None

    return prog


def fanout_spec(config: dict) -> RunSpec:
    """Picklable sweep factory for large-``n`` fan-out grids.

    ``config`` keys: ``n`` (clique size), ``rounds`` (broadcast rounds,
    default 1) and ``senders`` (how many nodes broadcast, default all).
    Used by the ``shard-sweep`` bench workload to push the sharded
    backend to ``n`` in the thousands without a graph-sized input.
    """
    n = int(config["n"])
    rounds = int(config.get("rounds", 1))
    senders = int(config.get("senders", n))
    return RunSpec(program=_fanout_program(min(senders, n), rounds), n=n)
