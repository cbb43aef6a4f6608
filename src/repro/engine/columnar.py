"""The columnar whole-round execution backend (``engine="columnar"``).

Every other backend advances ``n`` Python generators — one per node —
and delivers messages through per-node dictionaries, which caps the
clique sizes the simulator can drive.  The columnar engine flips the
program model: an **array program** is *one* generator over whole-clique
rounds whose state lives in numpy arrays indexed by node id.  Per-round
outboxes, link loads and bit totals are preallocated arrays, and a round
is a handful of vectorised operations:

* emission — the program queues traffic with
  :meth:`ArrayContext.broadcast` / :meth:`ArrayContext.send` (value
  columns + width columns, at most 64 bits per message payload, matching
  the per-link budget ``B = O(log n)``) and the privileged
  :meth:`ArrayContext.bulk_send` cost-model channel;
* validation — the shared ``CHECK_LEVELS`` vocabulary as array
  comparisons (``widths > B`` for ``"bandwidth"``; addressing, empty
  payloads and duplicate slots via index arithmetic for ``"full"``);
* delivery — conceptually one transpose-gather over the ``(n, n)``
  payload-index matrix (``inbox[dst, src] = outbox[src, dst]``),
  materialised on demand by :meth:`ArrayContext.inbox_dense`;
* accounting — per-node sent/received bit columns via scattered adds,
  with a broadcast of width ``w`` charged as ``n - 1`` recipient
  messages exactly like the reference engine.

Wide payloads are encoded/decoded through the bulk bit-codec kernels
(:func:`repro.clique.bits.encode_uint_array` /
:func:`~repro.clique.bits.decode_uint_array`) by the array ports in
:mod:`repro.algorithms.columnar`.

Observability, fault injection and transcripts are all supported, with
the exact semantics of the reference engine (sender always charged,
receiver only on arrival, bulk exempt), so faulty columnar runs are
differentially comparable.  Transcript recording or a per-message
observer sends delivery through the shared explicit-delivery core
(:func:`repro.engine.delivery.deliver_rows`); a fault plan alone keeps
the round in array form (:func:`repro.engine.delivery.deliver_columns`),
where the :class:`~repro.faults.FaultInjector`'s row decisions become a
keep mask over the expanded message columns.

Array programs
--------------

An :class:`ArrayProgram` is a callable ``program(ctx) -> generator``:
emissions before a ``yield`` are delivered when the generator resumes
(``ctx`` then exposes the round's inbox), and the generator's return
value becomes the per-node outputs (a mapping, a length-``n`` sequence
or array of per-node values, or ``None``).  Mark a bare array program
with :func:`array_program`, or attach one to an existing generator node
program with :class:`DualProgram` so a single catalog entry runs on
every backend — ``repro.engine.diff`` uses exactly that to gate the
columnar ports against the reference engine.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Protocol, Sequence, runtime_checkable

import numpy as np

from ..clique.bits import BitString
from ..clique.errors import (
    BandwidthExceeded,
    CliqueError,
    DuplicateMessage,
    InvalidAddress,
    ProtocolViolation,
    RoundLimitExceeded,
)
from ..clique.network import RunResult
from ..clique.transcript import RoundRecord, Transcript
from ..faults import FaultInjector, resolve_fault_plan
from ..obs import RoundStats, resolve_observer
from ..obs.profile import PhaseTimer
from .base import CHECK_LEVELS, Engine, canonical_check, register_engine
from .delivery import (
    BROADCAST,
    deliver_columns,
    deliver_rows,
    inbox_columns,
    sender_rows,
)

__all__ = [
    "ArrayContext",
    "ArrayProgram",
    "ColumnarEngine",
    "DualProgram",
    "adapt_generator",
    "array_program",
]

_I64 = np.int64
_U64 = np.uint64
_EMPTY_I = np.empty(0, dtype=_I64)
_EMPTY_U = np.empty(0, dtype=_U64)


@runtime_checkable
class ArrayProgram(Protocol):
    """A whole-clique program: ``program(ctx)`` returns a round generator."""

    __is_array_program__: bool

    def __call__(
        self, ctx: "ArrayContext"
    ) -> Generator[None, None, Any]:  # pragma: no cover - protocol
        ...


def array_program(fn: Callable) -> Callable:
    """Mark ``fn(ctx)`` as an array program runnable by the columnar engine."""
    fn.__is_array_program__ = True
    return fn


class DualProgram:
    """One catalog entry, two executable forms.

    ``generator`` is the classic per-node program (``program(node)``);
    ``array`` is the columnar form (``program(ctx)``).  The object is
    itself callable as a node program, so the reference and fast
    engines run the generator form unchanged while the columnar engine
    picks up :attr:`array` — which is how ``repro.engine.diff``
    differentially gates every columnar port against the reference
    semantics.
    """

    __slots__ = ("generator", "array", "__name__")

    def __init__(
        self,
        generator: Callable,
        array: Callable,
        name: str | None = None,
    ) -> None:
        self.generator = generator
        self.array = array
        self.__name__ = name or getattr(generator, "__name__", "dual_program")

    def __call__(self, node: Any) -> Any:
        return self.generator(node)

    def __repr__(self) -> str:
        return f"DualProgram({self.__name__})"


def _array_form(program: Any) -> Callable:
    """The columnar form of ``program``, or raise with guidance."""
    array = getattr(program, "array", None)
    if array is not None:
        return array
    if getattr(program, "__is_array_program__", False):
        return program
    name = getattr(program, "__name__", None) or repr(program)
    raise CliqueError(
        f"the columnar engine needs an array program, but {name!r} is a "
        f"plain per-node generator program; decorate a whole-clique form "
        f"with @array_program or attach one via "
        f"DualProgram(generator, array) — or run on another engine"
    )


def adapt_generator(program: Callable) -> Callable:
    """Bridge a per-node generator program onto the columnar engine.

    The adapted form drives ``n`` instances of ``program`` against real
    :class:`~repro.clique.node.Node` objects (so send-side validation is
    byte-identical to the reference engine) and shuttles their outboxes
    and inboxes through the :class:`ArrayContext` column API.  Rounds,
    bit accounting, halting and counters all follow reference
    semantics: silent rounds count while any node is live, a node that
    sends and then returns still has its messages delivered, and every
    counter a node touches becomes a full per-node column.

    The bridge is for *correctness* (differential gating, fault plans),
    not speed — it runs the same Python generators the reference engine
    would.  Message payloads are limited to the column width of 64 bits;
    wider payloads belong on the bulk channel, which is forwarded as-is.
    """
    from ..clique.node import Node

    @array_program
    def adapted(ctx: "ArrayContext") -> Generator[None, None, dict]:
        n = ctx.n
        nodes = [
            Node(v, n, ctx.bandwidth, ctx.inputs[v], ctx.auxes[v])
            for v in range(n)
        ]
        gens: dict[int, Generator] = {}
        outputs: dict[int, Any] = {}

        def advance(v: int) -> None:
            try:
                next(gens[v])
            except StopIteration as stop:
                outputs[v] = stop.value
                nodes[v]._halted = True
                del gens[v]

        def flush_outboxes() -> None:
            srcs: list[int] = []
            dsts: list[int] = []
            vals: list[int] = []
            wids: list[int] = []
            for node in nodes:
                for dst, payload in node._outbox.items():
                    if len(payload) > 64:
                        raise CliqueError(
                            f"adapt_generator: node {node.id} sent a "
                            f"{len(payload)}-bit payload; columnar message "
                            f"columns carry at most 64 bits"
                        )
                    srcs.append(node.id)
                    dsts.append(dst)
                    vals.append(payload.value)
                    wids.append(len(payload))
                node._outbox = {}
                for dst, payload in node._bulk_outbox.items():
                    ctx.bulk_send(node.id, dst, payload.value, len(payload))
                node._bulk_outbox = {}
            if srcs:
                ctx.send(srcs, dsts, vals, wids)

        for v in range(n):
            gens[v] = program(nodes[v])
            advance(v)

        while gens or any(node._outbox for node in nodes):
            flush_outboxes()
            yield
            inboxes: list[dict[int, BitString]] = [{} for _ in range(n)]
            bs, bv, bw = ctx.inbox_broadcast
            for i in range(bs.size):
                payload = BitString(int(bv[i]), int(bw[i]))
                src = int(bs[i])
                for dst in range(n):
                    if dst != src:
                        inboxes[dst][src] = payload
            ms, md, mv, mw = ctx.inbox_messages
            for i in range(ms.size):
                inboxes[int(md[i])][int(ms[i])] = BitString(
                    int(mv[i]), int(mw[i])
                )
            for src, dst, value, width in ctx.inbox_bulk:
                inboxes[dst][src] = BitString(value, width)
            for v in list(gens):
                nodes[v]._inbox = inboxes[v]
                nodes[v]._round += 1
                advance(v)

        for key in sorted({k for node in nodes for k in node.counters}):
            ctx.count(
                key, [node.counters.get(key, 0) for node in nodes]
            )
        return outputs

    adapted.__name__ = getattr(program, "__name__", "adapted_generator")
    return adapted


class ArrayContext:
    """Whole-clique state handed to an array program.

    Attributes
    ----------
    n, bandwidth:
        Model parameters (``bandwidth`` is the per-link budget ``B``).
    ids:
        ``np.arange(n)`` — the node-id column.
    inputs, auxes:
        Per-node resolved inputs, indexed by node id.
    round:
        Completed communication rounds.

    Emission (before a ``yield``): :meth:`broadcast`, :meth:`send`,
    :meth:`bulk_send`.  Inbox (after a ``yield``):
    :attr:`inbox_broadcast`, :attr:`inbox_messages`, :attr:`inbox_bulk`,
    :meth:`inbox_dense`.  Message payloads are unsigned values of at
    most 64 bits (wide payloads belong on the bulk channel, which
    carries arbitrary-precision ints).
    """

    __slots__ = (
        "n",
        "bandwidth",
        "ids",
        "inputs",
        "auxes",
        "round",
        "_bcast",
        "_uni",
        "_bulk",
        "_in_bcast",
        "_in_coo",
        "_in_bulk",
        "_dense_val",
        "_dense_mask",
        "_counters",
    )

    def __init__(
        self,
        n: int,
        bandwidth: int,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
    ) -> None:
        self.n = n
        self.bandwidth = bandwidth
        self.ids = np.arange(n, dtype=_I64)
        self.inputs = tuple(inputs)
        self.auxes = tuple(auxes)
        self.round = 0
        self._bcast: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._uni: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._bulk: list[tuple[int, int, int, int]] = []
        self._in_bcast = (_EMPTY_I, _EMPTY_U, _EMPTY_I)
        self._in_coo = (_EMPTY_I, _EMPTY_I, _EMPTY_U, _EMPTY_I)
        self._in_bulk: list[tuple[int, int, int, int]] = []
        # Preallocated (n, n) delivery scratch, materialised on first use.
        self._dense_val: np.ndarray | None = None
        self._dense_mask: np.ndarray | None = None
        self._counters: dict[str, np.ndarray] = {}

    # -- emission --------------------------------------------------------

    def broadcast(
        self,
        values: Any,
        width: Any,
        senders: Any = None,
    ) -> None:
        """Queue one broadcast per sender (default: every node).

        ``values`` is one unsigned payload value per sender (scalar
        broadcasts to all senders); ``width`` the common bit width (or a
        per-sender array).  A broadcast is charged as ``n - 1``
        recipient messages, like every other backend.
        """
        senders = (
            self.ids
            if senders is None
            else np.asarray(senders, dtype=_I64).ravel()
        )
        if senders.size == 0:
            return
        values = np.broadcast_to(
            np.asarray(values, dtype=_U64), senders.shape
        )
        widths = np.broadcast_to(np.asarray(width, dtype=_I64), senders.shape)
        self._bcast.append((senders, values, widths))

    def send(self, src: Any, dst: Any, values: Any, width: Any) -> None:
        """Queue addressed messages: ``values[i]`` goes ``src[i] -> dst[i]``.

        All four arguments broadcast against each other; ``width`` may
        be a scalar or a per-message array.
        """
        src = np.asarray(src, dtype=_I64).ravel()
        dst = np.asarray(dst, dtype=_I64).ravel()
        if src.size == 0 and dst.size == 0:
            return
        src, dst = np.broadcast_arrays(src, dst)
        values = np.broadcast_to(np.asarray(values, dtype=_U64), src.shape)
        widths = np.broadcast_to(np.asarray(width, dtype=_I64), src.shape)
        self._uni.append((src, dst, values, widths))

    def bulk_send(self, src: int, dst: int, value: int, width: int) -> None:
        """Privileged unbounded send on the cost-model bulk channel.

        Mirrors ``Node._bulk_send``: reserved for routers that charge
        rounds separately (Lenzen's theorem); ``value`` is an
        arbitrary-precision unsigned int, empty payloads are dropped,
        and the channel is exempt from fault injection.
        """
        if width == 0:
            return
        self._bulk.append((int(src), int(dst), int(value), int(width)))

    def count(self, key: str, amounts: Any) -> None:
        """Add per-node amounts to the measurement counter ``key``."""
        column = self._counters.get(key)
        if column is None:
            column = self._counters[key] = np.zeros(self.n, dtype=_I64)
        column += np.asarray(amounts, dtype=_I64)

    # -- inbox -----------------------------------------------------------

    @property
    def inbox_broadcast(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unexpanded broadcast deliveries: ``(senders, values, widths)``.

        Every node other than a sender received that sender's value.
        Empty on the explicit delivery path (faults/transcripts), where
        broadcasts arrive expanded in :attr:`inbox_messages`.
        """
        return self._in_bcast

    @property
    def inbox_messages(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Delivered addressed messages as ``(src, dst, values, widths)``."""
        return self._in_coo

    @property
    def inbox_bulk(self) -> list[tuple[int, int, int, int]]:
        """Bulk-channel deliveries: ``(src, dst, value, width)`` tuples."""
        return self._in_bulk

    def inbox_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """The round's inbox as the dense ``(n, n)`` gather.

        Returns ``(values, mask)`` with ``values[dst, src]`` the payload
        value delivered ``src -> dst`` and ``mask`` marking real
        deliveries.  The arrays are preallocated scratch reused across
        rounds — consume (or copy) them before the next ``yield``.
        """
        n = self.n
        if self._dense_val is None:
            self._dense_val = np.zeros((n, n), dtype=_U64)
            self._dense_mask = np.zeros((n, n), dtype=bool)
        vals, mask = self._dense_val, self._dense_mask
        vals.fill(0)
        mask.fill(False)
        bs, bv, _bw = self._in_bcast
        if bs.size:
            vals[:, bs] = bv
            mask[:, bs] = True
            mask[bs, bs] = False
        src, dst, val, _wid = self._in_coo
        if src.size:
            vals[dst, src] = val
            mask[dst, src] = True
        return vals, mask

    # -- engine internals ------------------------------------------------

    def _has_pending(self) -> bool:
        return bool(self._bcast or self._uni or self._bulk)

    def _collect_outbox(
        self,
    ) -> tuple[
        np.ndarray, np.ndarray, np.ndarray,
        np.ndarray, np.ndarray, np.ndarray, np.ndarray,
    ]:
        """Concatenate the round's emission segments into flat columns."""
        if len(self._bcast) == 1:
            bs, bv, bw = self._bcast[0]
        elif self._bcast:
            bs = np.concatenate([seg[0] for seg in self._bcast])
            bv = np.concatenate([seg[1] for seg in self._bcast])
            bw = np.concatenate([seg[2] for seg in self._bcast])
        else:
            bs, bv, bw = _EMPTY_I, _EMPTY_U, _EMPTY_I
        if len(self._uni) == 1:
            us, ud, uv, uw = self._uni[0]
        elif self._uni:
            us = np.concatenate([seg[0] for seg in self._uni])
            ud = np.concatenate([seg[1] for seg in self._uni])
            uv = np.concatenate([seg[2] for seg in self._uni])
            uw = np.concatenate([seg[3] for seg in self._uni])
        else:
            us, ud, uv, uw = _EMPTY_I, _EMPTY_I, _EMPTY_U, _EMPTY_I
        return bs, bv, bw, us, ud, uv, uw

    def _clear_outbox(self) -> None:
        self._bcast.clear()
        self._uni.clear()
        self._bulk.clear()


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


@register_engine
class ColumnarEngine(Engine):
    """Vectorised whole-round backend for array programs.

    Parameters
    ----------
    check:
        Validation level (``"full"``, ``"bandwidth"`` — the default, as
        on the fast engine — or ``"off"``), applied as array comparisons
        over each round's emission columns.
    """

    name = "columnar"

    def __init__(self, check: str = "bandwidth") -> None:
        check = canonical_check(check)
        if check not in CHECK_LEVELS:
            raise CliqueError(f"check must be one of {CHECK_LEVELS}, got {check!r}")
        self.check = check

    def describe(self) -> dict:
        """Engine configuration (cache key component)."""
        return {"engine": self.name, "check": self.check}

    def execute(
        self,
        clique,
        program,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
        *,
        observer: Any = None,
        transcripts: bool | None = None,
        fault_plan: Any = None,
    ) -> RunResult:
        """Run the array form of ``program`` (see the module docstring)."""
        if clique.broadcast_only or clique.topology is not None:
            raise CliqueError(
                "the columnar engine supports the plain congested clique "
                "only; use the reference engine for broadcast-only cliques "
                "or CONGEST topologies"
            )
        array = _array_form(program)
        n = clique.n
        bandwidth = clique.bandwidth
        record = transcripts if transcripts is not None else clique.record_transcripts
        obs = resolve_observer(observer)
        plan = resolve_fault_plan(fault_plan)
        injector = FaultInjector(plan, n, obs) if plan is not None else None
        per_message = obs is not None and obs.wants_messages
        track_halts = obs is not None and obs.wants_halts
        timer = PhaseTimer() if obs is not None and obs.wants_timing else None

        if timer is not None:
            timer.start("spawn")
        ctx = ArrayContext(n, bandwidth, inputs, auxes)
        gen = array(ctx)
        if not hasattr(gen, "send"):
            raise CliqueError(
                "array program must be a generator function "
                "(use 'yield' for round boundaries)"
            )
        if obs is not None:
            obs.on_run_start(n=n, bandwidth=bandwidth, engine=self.name)

        rounds = 0
        total_bits = 0
        bulk_total = 0
        sent_totals = np.zeros(n, dtype=_I64)
        received_totals = np.zeros(n, dtype=_I64)
        records: list[list[RoundRecord]] = [[] for _ in range(n)]
        finished = False
        out_value: Any = None

        def advance() -> None:
            nonlocal finished, out_value
            if timer is not None:
                timer.start("advance")
            try:
                next(gen)
            except StopIteration as stop:
                finished = True
                out_value = stop.value
                if track_halts:
                    for v in range(n):
                        obs.on_halt(round=rounds, node=v)

        advance()
        if timer is not None:
            obs.on_phases(round=0, seconds=timer.flush())

        while True:
            if finished and not ctx._has_pending():
                break
            if rounds >= clique.max_rounds:
                raise RoundLimitExceeded(clique.max_rounds)
            this_round = rounds + 1
            if timer is not None:
                timer.start("deliver")
            stats = self._deliver(
                ctx,
                this_round,
                injector=injector,
                per_message=per_message,
                obs=obs,
                records=records if record else None,
            )
            total_bits += stats.message_bits
            bulk_total += stats.bulk_bits
            sent_totals += stats.sent_bits
            received_totals += stats.received_bits
            rounds = this_round
            ctx.round = rounds
            if obs is not None:
                obs.on_round(
                    RoundStats(
                        this_round,
                        stats.unicast_messages,
                        stats.broadcast_messages,
                        stats.bulk_messages,
                        stats.message_bits,
                        stats.bulk_bits,
                        stats.sent_bits.tolist(),
                        stats.received_bits.tolist(),
                    )
                )
            if not finished:
                advance()
                if timer is not None:
                    obs.on_phases(round=this_round, seconds=timer.flush())
            elif timer is not None:
                obs.on_phases(round=this_round, seconds=timer.flush())

        outputs = _normalise_outputs(out_value, n)
        counters = tuple(
            {key: int(col[v]) for key, col in ctx._counters.items()}
            for v in range(n)
        )
        out_transcripts = None
        if record:
            out_transcripts = tuple(
                Transcript(node=v, n=n, rounds=tuple(records[v]))
                for v in range(n)
            )
        metrics = None
        if obs is not None:
            obs.on_run_end(rounds=rounds, counters=counters)
            metrics = obs.run_metrics()
        return RunResult(
            outputs=outputs,
            rounds=rounds,
            total_message_bits=total_bits,
            bulk_bits=bulk_total,
            sent_bits=tuple(int(x) for x in sent_totals),
            received_bits=tuple(int(x) for x in received_totals),
            counters=counters,
            transcripts=out_transcripts,
            metrics=metrics,
        )

    # -- delivery --------------------------------------------------------

    def _deliver(
        self,
        ctx: ArrayContext,
        this_round: int,
        *,
        injector: FaultInjector | None,
        per_message: bool,
        obs: Any,
        records: list | None,
    ) -> RoundStats:
        """Validate, deliver and account one round's queued traffic."""
        n = ctx.n
        bs, bv, bw, us, ud, uv, uw = ctx._collect_outbox()
        bulk = ctx._bulk
        bs, bv, bw, us, ud, uv, uw = _validate_columns(
            n, ctx.bandwidth, self.check, bs, bv, bw, us, ud, uv, uw, bulk
        )

        sent, received, msg_bits, bulk_bits = _sent_accounting(
            n, bs, bw, us, uw, bulk
        )

        if records is not None or per_message:
            coo = _deliver_per_message(
                n,
                this_round,
                (bs, bv, bw),
                (us, ud, uv, uw),
                bulk,
                injector=injector,
                obs=obs if per_message else None,
                records=records,
                received=received,
            )
        elif injector is not None:
            # Faults only: the decisions become a keep mask over the
            # columns and no message is built as an object.
            coo = deliver_columns(
                injector, this_round, n, (bs, bv, bw), (us, ud, uv, uw), bulk, received
            )
        else:
            # Fault-free fast path: delivery is the identity transpose of
            # the outbox columns; only the accounting needs computing.
            _fast_received(received, bs, bw, ud, uw)
            coo = None
        if coo is None:
            ctx._in_bcast = (bs, bv, bw)
            ctx._in_coo = (us, ud, uv, uw)
        else:
            # Explicit delivery lands broadcasts expanded in the COO inbox.
            ctx._in_bcast = (_EMPTY_I, _EMPTY_U, _EMPTY_I)
            ctx._in_coo = coo
        ctx._in_bulk = list(bulk)

        stats = RoundStats(
            this_round,
            int(us.size),
            int(bs.size) * (n - 1),
            len(bulk),
            msg_bits,
            bulk_bits,
            sent,
            received,
        )
        ctx._clear_outbox()
        return stats


def _deliver_per_message(
    n: int,
    this_round: int,
    bcast: tuple,
    unicast: tuple,
    bulk: list,
    *,
    injector: FaultInjector | None,
    obs: Any,
    records: list | None,
    received: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deliver through the shared core when transcripts or a per-message
    observer need every message; returns the inbox COO columns.

    Bulk messages stay outside the COO inbox (``ctx.inbox_bulk``), but
    they are occupied inbox slots in the reference engine, so the core
    reserves them from forged messages.
    """
    entries = [
        (src, BROADCAST, BitString(value, width), False)
        for src, value, width in zip(*(col.tolist() for col in bcast))
    ]
    entries += [
        (src, dst, BitString(value, width), False)
        for src, dst, value, width in zip(*(col.tolist() for col in unicast))
    ]
    # Senders were already charged by _sent_accounting.
    rows, _counts = sender_rows(entries, n, [0] * n)
    bulk = [(src, dst, BitString(value, width)) for src, dst, value, width in bulk]
    inboxes: list[dict[int, BitString]] = [{} for _ in range(n)]
    sent_records = [{} for _ in range(n)] if records is not None else None
    deliver_rows(
        this_round,
        rows,
        inboxes,
        received,
        injector=injector,
        sent_records=sent_records,
        obs=obs,
        bulk_outside=bulk,
    )
    if records is not None:
        bulk_in: list[dict[int, BitString]] = [{} for _ in range(n)]
        for src, dst, payload in bulk:
            bulk_in[dst][src] = payload
        for v in range(n):
            records[v].append(
                RoundRecord(
                    sent=sent_records[v], received={**inboxes[v], **bulk_in[v]}
                )
            )
    return inbox_columns(inboxes)


def _validate_columns(
    n: int,
    bandwidth: int,
    check: str,
    bs, bv, bw, us, ud, uv, uw,
    bulk: list,
):
    """Apply a check level to one round's emission columns.

    Returns the possibly-deduplicated columns.
    """
    b = bandwidth
    if check == "off":
        return bs, bv, bw, us, ud, uv, uw
    # bandwidth: the per-link bit budget, on both segments.
    if bs.size:
        over = bw > b
        if over.any():
            i = _first(over)
            src = int(bs[i])
            raise BandwidthExceeded(
                src, 0 if src != 0 else 1, int(bw[i]), b
            )
    if us.size:
        over = uw > b
        if over.any():
            i = _first(over)
            raise BandwidthExceeded(int(us[i]), int(ud[i]), int(uw[i]), b)
    if check != "full":
        # Lax semantics: a repeated send to the same slot overwrites
        # (last write wins), matching the other backends' lax nodes.
        if us.size:
            us, ud, uv, uw = _dedup_last(n, us, ud, uv, uw)
        return bs, bv, bw, us, ud, uv, uw
    # full: addressing, empty payloads, duplicate slots.
    if bs.size:
        bad = (bs < 0) | (bs >= n)
        if bad.any():
            i = _first(bad)
            raise InvalidAddress(
                f"broadcast sender {int(bs[i])} out of range (n={n})"
            )
        empty = bw < 1
        if empty.any():
            i = _first(empty)
            raise ProtocolViolation(
                f"node {int(bs[i])} sent an empty message; "
                f"omit the send instead"
            )
        if np.unique(bs).size != bs.size:
            dup = int(bs[_first_duplicate(bs)])
            raise DuplicateMessage(dup, (dup + 1) % n)
    if us.size:
        bad = (ud < 0) | (ud >= n) | (us < 0) | (us >= n)
        if bad.any():
            i = _first(bad)
            raise InvalidAddress(
                f"node {int(us[i])} addressed nonexistent node "
                f"{int(ud[i])} (n={n})"
            )
        self_send = us == ud
        if self_send.any():
            i = _first(self_send)
            raise InvalidAddress(f"node {int(us[i])} addressed itself")
        empty = uw < 1
        if empty.any():
            i = _first(empty)
            raise ProtocolViolation(
                f"node {int(us[i])} sent an empty message to "
                f"{int(ud[i])}; omit the send instead"
            )
        keys = us * n + ud
        if np.unique(keys).size != keys.size:
            i = _first_duplicate(keys)
            raise DuplicateMessage(int(us[i]), int(ud[i]))
        if bs.size:
            clash = np.isin(us, bs)
            if clash.any():
                i = _first(clash)
                raise DuplicateMessage(int(us[i]), int(ud[i]))
    if bulk:
        seen = set()
        uni_slots = (
            set(zip(us.tolist(), ud.tolist())) if us.size else set()
        )
        bset = set(bs.tolist())
        for src, dst, _value, _width in bulk:
            if src == dst or not 0 <= dst < n or not 0 <= src < n:
                raise InvalidAddress(
                    f"bulk send {src} -> {dst} is invalid (n={n})"
                )
            if (src, dst) in seen or (src, dst) in uni_slots or src in bset:
                raise DuplicateMessage(src, dst)
            seen.add((src, dst))
    return bs, bv, bw, us, ud, uv, uw


def _sent_accounting(
    n: int, bs, bw, us, uw, bulk: list
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Sender-side bit accounting for one round's validated columns.

    Returns ``(sent, received, msg_bits, bulk_bits)`` with ``received``
    holding only the bulk-channel arrivals (message arrivals are added
    by :func:`_fast_received` on the fault-free path or per arrival on
    the faulty and per-message paths).
    """
    sent = np.zeros(n, dtype=_I64)
    received = np.zeros(n, dtype=_I64)
    msg_bits = 0
    bulk_bits = 0
    if bs.size:
        per_sender = bw * (n - 1)
        msg_bits += int(per_sender.sum())
        sent[bs] += per_sender
    if us.size:
        msg_bits += int(uw.sum())
        np.add.at(sent, us, uw)
    for src, dst, _value, width in bulk:
        bulk_bits += width
        sent[src] += width
        received[dst] += width
    return sent, received, msg_bits, bulk_bits


def _fast_received(received: np.ndarray, bs, bw, ud, uw) -> None:
    """Receiver-side accounting when delivery is the identity transpose."""
    if bs.size:
        received += int(bw.sum())
        received[bs] -= bw
    if ud.size:
        np.add.at(received, ud, uw)


def _dedup_last(n: int, us, ud, uv, uw):
    """Collapse repeated (src, dst) slots keeping the last emission."""
    keys = us * n + ud
    unique, rev_index = np.unique(keys[::-1], return_index=True)
    if unique.size == keys.size:
        return us, ud, uv, uw
    sel = keys.size - 1 - rev_index
    return us[sel], ud[sel], uv[sel], uw[sel]


def _first_duplicate(keys: np.ndarray) -> int:
    """Index of the first repeated entry in ``keys``."""
    seen: set = set()
    for i, key in enumerate(keys.tolist()):
        if key in seen:
            return i
        seen.add(key)
    return 0  # pragma: no cover - caller guarantees a duplicate exists


def _normalise_outputs(value: Any, n: int) -> dict[int, Any]:
    """Per-node outputs from an array program's return value."""
    if value is None:
        return {v: None for v in range(n)}
    if isinstance(value, dict):
        return {int(v): out for v, out in value.items()}
    if isinstance(value, np.ndarray):
        if value.shape[:1] != (n,):
            raise CliqueError(
                f"array program returned an array of leading dimension "
                f"{value.shape[:1]}, expected ({n},)"
            )
        return {v: value[v] for v in range(n)}
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise CliqueError(
                f"array program returned {len(value)} outputs for {n} nodes"
            )
        return {v: value[v] for v in range(n)}
    raise CliqueError(
        f"array program must return None, a mapping, or a length-n "
        f"sequence/array of per-node outputs, got {type(value).__name__}"
    )
