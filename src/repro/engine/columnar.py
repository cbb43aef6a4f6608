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

Wide payloads travel the bulk channel as a :class:`BulkBatch`: flow
columns ``src``, ``dst`` and ``offsets`` index lane columns ``values``
(``uint64``) and ``widths`` (``uint8``), and a flow's bits are its lanes
concatenated MSB first, the layout of the bit codec.  The array ports
in :mod:`repro.algorithms.columnar` write matrix entries and keys
straight into lanes and read them back by index arithmetic, so no
Python int carries a bulk payload; ints are built only for transcripts,
per-message observers and the generator bridge (iterating a batch).

Observability, fault injection and transcripts are all supported, with
the exact semantics of the reference engine (sender always charged,
receiver only on arrival, bulk exempt), so faulty columnar runs are
differentially comparable.  A round is delivered one of two ways: the
identity transpose above when it is fault-free and unobserved, and
otherwise (a fault plan, transcript recording or a per-message
observer) the one explicit path,
:func:`repro.engine.delivery.deliver_columns`, which keeps the round in
array form: the :class:`~repro.faults.FaultInjector`'s row decisions
become a keep mask over the expanded message columns, per-message
observer events are emitted from those columns, and transcripts are
built from the emission columns, the delivered inbox columns and the
bulk channel.

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
from .delivery import deliver_columns

__all__ = [
    "ArrayContext",
    "ArrayProgram",
    "BulkBatch",
    "ColumnarEngine",
    "DualProgram",
    "adapt_generator",
    "array_program",
]

_I64 = np.int64
_U64 = np.uint64
_EMPTY_I = np.empty(0, dtype=_I64)
_EMPTY_U = np.empty(0, dtype=_U64)
_U8 = np.uint8
_LANE_BITS = 64


def segment_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    without the Python loop."""
    counts = np.asarray(counts, dtype=_I64).ravel()
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I
    first = np.asarray(starts, dtype=_I64).ravel() - (np.cumsum(counts) - counts)
    out = np.repeat(first, counts)
    out += np.arange(total, dtype=_I64)
    return out


def int_lanes(payloads: Sequence[int], nbits: Sequence[int]):
    """Split arbitrary-precision payloads into ``(values, widths,
    offsets)`` lane columns: each ``L``-bit payload becomes one narrow
    head lane plus 64-bit lanes (an empty payload, no lanes)."""
    values: list[int] = []
    widths: list[int] = []
    counts: list[int] = []
    mask = (1 << _LANE_BITS) - 1
    for value, length in zip(payloads, nbits):
        k = -(-length // _LANE_BITS)
        counts.append(k)
        if k <= 1:
            if k:
                values.append(value)
                widths.append(length)
            continue
        widths.append(length - _LANE_BITS * (k - 1))
        widths.extend([_LANE_BITS] * (k - 1))
        values.extend((value >> (_LANE_BITS * j)) & mask for j in range(k - 1, -1, -1))
    offsets = np.zeros(len(counts) + 1, dtype=_I64)
    np.cumsum(counts, out=offsets[1:])
    return (
        np.asarray(values, dtype=_U64),
        np.asarray(widths, dtype=_U8),
        offsets,
    )


class BulkBatch:
    """Bulk-channel flows as columns.

    Flow ``i`` goes ``src[i] -> dst[i]`` and carries the lanes
    ``offsets[i]:offsets[i + 1]``: lane ``j`` holds the low ``widths[j]``
    (at most 64) bits of ``values[j]``, and the flow's payload is its
    lanes concatenated MSB first, ``nbits[i]`` bits in all.  Without
    ``offsets`` every flow is one lane and the four columns broadcast
    against each other, like :meth:`ArrayContext.send`'s.

    Iterating yields ``(src, dst, value, nbits)`` with the payload as a
    Python int, for the consumers that need ints: transcripts,
    per-message observers and generator programs.
    """

    __slots__ = ("src", "dst", "offsets", "values", "widths", "nbits")

    def __init__(
        self, src: Any, dst: Any, values: Any, widths: Any, offsets: Any = None
    ) -> None:
        if offsets is None:
            src, dst, values, widths = np.broadcast_arrays(
                np.asarray(src, dtype=_I64).ravel(),
                np.asarray(dst, dtype=_I64).ravel(),
                np.asarray(values, dtype=_U64).ravel(),
                np.asarray(widths).ravel(),
            )
            offsets = np.arange(src.size + 1, dtype=_I64)
        else:
            src, dst = np.broadcast_arrays(
                np.asarray(src, dtype=_I64).ravel(),
                np.asarray(dst, dtype=_I64).ravel(),
            )
            values, widths = np.broadcast_arrays(
                np.asarray(values, dtype=_U64).ravel(), np.asarray(widths).ravel()
            )
            offsets = np.asarray(offsets, dtype=_I64).ravel()
            if offsets.size != src.size + 1 or (
                src.size and (offsets[0] != 0 or offsets[-1] != values.size)
            ):
                raise CliqueError(
                    f"bulk batch offsets must run from 0 to the {values.size} "
                    f"lanes in {src.size + 1} entries"
                )
        if widths.dtype != _U8:
            if widths.size and (widths.min() < 0 or widths.max() > _LANE_BITS):
                raise CliqueError("bulk lanes carry 0 to 64 bits each")
            widths = widths.astype(_U8)
        elif widths.size and widths.max() > _LANE_BITS:
            raise CliqueError("bulk lanes carry 0 to 64 bits each")
        self._set(src, dst, offsets, values, widths, _lane_sums(widths, offsets))

    def _set(self, src, dst, offsets, values, widths, nbits) -> "BulkBatch":
        self.src = src
        self.dst = dst
        self.offsets = offsets
        self.values = values
        self.widths = widths
        self.nbits = nbits
        return self

    def __len__(self) -> int:
        return int(self.src.size)

    def __iter__(self):
        return zip(
            self.src.tolist(), self.dst.tolist(), self.payloads(), self.nbits.tolist()
        )

    def payloads(self, flows: Any = None) -> list[int]:
        """The payloads of ``flows`` (default: all) as Python ints."""
        values = self.values.tolist()
        widths = self.widths.tolist()
        offsets = self.offsets.tolist()
        out = []
        for i in range(len(self)) if flows is None else flows:
            value = 0
            for j in range(offsets[i], offsets[i + 1]):
                value = (value << widths[j]) | values[j]
            out.append(value)
        return out

    def take(self, flows: Any) -> "BulkBatch":
        """The batch of ``flows`` (a mask, or indices in any order)."""
        flows = np.asarray(flows)
        counts = np.diff(self.offsets)[flows]
        if flows.dtype == bool:
            lanes = np.repeat(flows, np.diff(self.offsets))
        else:
            lanes = segment_ranges(self.offsets[flows], counts)
        offsets = np.zeros(counts.size + 1, dtype=_I64)
        np.cumsum(counts, out=offsets[1:])
        return BulkBatch.__new__(BulkBatch)._set(
            self.src[flows],
            self.dst[flows],
            offsets,
            self.values[lanes],
            self.widths[lanes],
            self.nbits[flows],
        )

    def split(self, k: int) -> tuple["BulkBatch", "BulkBatch"]:
        """The first ``k`` flows and the rest, as views of the lanes."""
        cut = int(self.offsets[k])
        head, tail = BulkBatch.__new__(BulkBatch), BulkBatch.__new__(BulkBatch)
        head._set(
            self.src[:k],
            self.dst[:k],
            self.offsets[: k + 1],
            self.values[:cut],
            self.widths[:cut],
            self.nbits[:k],
        )
        tail._set(
            self.src[k:],
            self.dst[k:],
            self.offsets[k:] - cut,
            self.values[cut:],
            self.widths[cut:],
            self.nbits[k:],
        )
        return head, tail

    @staticmethod
    def concat(batches: Sequence["BulkBatch"]) -> "BulkBatch":
        """One batch holding the flows of ``batches`` in order."""
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return BulkBatch(_EMPTY_I, _EMPTY_I, _EMPTY_U, _EMPTY_U.astype(_U8))
        shift = np.cumsum([0] + [b.values.size for b in batches[:-1]])
        return BulkBatch.__new__(BulkBatch)._set(
            np.concatenate([b.src for b in batches]),
            np.concatenate([b.dst for b in batches]),
            np.concatenate(
                [np.zeros(1, dtype=_I64)]
                + [b.offsets[1:] + s for b, s in zip(batches, shift)]
            ),
            np.concatenate([b.values for b in batches]),
            np.concatenate([b.widths for b in batches]),
            np.concatenate([b.nbits for b in batches]),
        )


def _lane_sums(widths: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Bits per flow: the widths of its lanes, summed."""
    counts = np.diff(offsets)
    if widths.size and widths.min() == widths.max():
        return counts * int(widths[0])
    # Segment sums over the flows that own lanes: each such segment runs
    # to the next one's first lane, past any empty flows.
    nbits = np.zeros(counts.size, dtype=_I64)
    owns = counts > 0
    if owns.any():
        nbits[owns] = np.add.reduceat(widths, offsets[:-1][owns], dtype=_I64)
    return nbits


_EMPTY_BULK = BulkBatch.concat([])


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
            bulk: list[tuple[int, int, int, int]] = []
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
                    bulk.append((node.id, dst, payload.value, len(payload)))
                node._bulk_outbox = {}
            if srcs:
                ctx.send(srcs, dsts, vals, wids)
            if bulk:
                bsrc, bdst, bval, blen = zip(*bulk)
                ctx.bulk_send(BulkBatch(bsrc, bdst, *int_lanes(bval, blen)))

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
    most 64 bits (wide payloads belong on the bulk channel, whose flows
    are :class:`BulkBatch` lane columns).
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
        self._bulk: list[BulkBatch] = []
        self._in_bcast = (_EMPTY_I, _EMPTY_U, _EMPTY_I)
        self._in_coo = (_EMPTY_I, _EMPTY_I, _EMPTY_U, _EMPTY_I)
        self._in_bulk = _EMPTY_BULK
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

    def bulk_send(self, flows: BulkBatch) -> None:
        """Privileged unbounded sends on the cost-model bulk channel.

        Mirrors ``Node._bulk_send``: reserved for routers that charge
        rounds separately (Lenzen's theorem), and exempt from fault
        injection.  Empty flows are dropped; a round whose one batch
        has none delivers that very object as :attr:`inbox_bulk`.
        """
        if not flows.nbits.all():
            flows = flows.take(flows.nbits > 0)
        if len(flows):
            self._bulk.append(flows)

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
        Empty on the explicit delivery path (a fault plan, transcripts
        or a per-message observer), where broadcasts arrive expanded in
        :attr:`inbox_messages`.
        """
        return self._in_bcast

    @property
    def inbox_messages(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Delivered addressed messages as ``(src, dst, values, widths)``."""
        return self._in_coo

    @property
    def inbox_bulk(self) -> BulkBatch:
        """Bulk-channel deliveries, as sent: the round's flows in emission
        order (iterating yields ``(src, dst, value, nbits)`` int tuples).
        """
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

    def _collect_bulk(self) -> BulkBatch:
        """The round's bulk segments as one batch."""
        return BulkBatch.concat(self._bulk) if self._bulk else _EMPTY_BULK

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
        Validation level (``"full"`` or ``"bandwidth"`` — the default, as
        on the fast engine), applied as array comparisons over each
        round's emission columns.
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
                obs=obs if per_message else None,
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
        obs: Any,
        records: list | None,
    ) -> RoundStats:
        """Validate, deliver and account one round's queued traffic;
        ``obs`` is the per-message observer, if any."""
        n = ctx.n
        bs, bv, bw, us, ud, uv, uw = ctx._collect_outbox()
        bulk = ctx._collect_bulk()
        bs, bv, bw, us, ud, uv, uw = _validate_columns(
            n, ctx.bandwidth, self.check, bs, bv, bw, us, ud, uv, uw, bulk
        )

        sent, received, msg_bits, bulk_bits = _sent_accounting(
            n, bs, bw, us, uw, bulk
        )

        if injector is None and obs is None and records is None:
            # Fault-free, unobserved: delivery is the identity transpose
            # of the outbox columns; only the accounting needs computing.
            _fast_received(received, bs, bw, ud, uw)
            ctx._in_bcast = (bs, bv, bw)
            ctx._in_coo = (us, ud, uv, uw)
        else:
            # Explicit delivery: broadcasts land expanded in the COO inbox.
            coo = deliver_columns(
                injector,
                this_round,
                n,
                (bs, bv, bw),
                (us, ud, uv, uw),
                bulk,
                received,
                obs,
            )
            ctx._in_bcast = (_EMPTY_I, _EMPTY_U, _EMPTY_I)
            ctx._in_coo = coo
            if records is not None:
                _record_round(records, n, (bs, bv, bw), (us, ud, uv, uw), coo, bulk)
        ctx._in_bulk = bulk

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


def _record_round(
    records: list[list[RoundRecord]],
    n: int,
    bcast: tuple,
    unicast: tuple,
    inbox: tuple,
    bulk: BulkBatch,
) -> None:
    """Append one :class:`RoundRecord` per node: every queued payload as
    sent (broadcasts expanded, then unicasts, then bulk) and the inbox
    columns plus the bulk channel as received."""
    sent: list[dict[int, BitString]] = [{} for _ in range(n)]
    got: list[dict[int, BitString]] = [{} for _ in range(n)]
    for src, value, width in zip(*(col.tolist() for col in bcast)):
        payload = BitString(value, width)
        box = sent[src]
        for dst in range(n):
            if dst != src:
                box[dst] = payload
    for src, dst, value, width in zip(*(col.tolist() for col in unicast)):
        sent[src][dst] = BitString(value, width)
    for src, dst, value, width in zip(*(col.tolist() for col in inbox)):
        got[dst][src] = BitString(value, width)
    for src, dst, value, width in bulk:
        payload = BitString(value, width)
        sent[src][dst] = payload
        got[dst][src] = payload
    for v in range(n):
        records[v].append(RoundRecord(sent=sent[v], received=got[v]))


def _validate_columns(
    n: int,
    bandwidth: int,
    check: str,
    bs, bv, bw, us, ud, uv, uw,
    bulk: BulkBatch,
):
    """Apply a check level to one round's emission columns.

    Returns the possibly-deduplicated columns.
    """
    b = bandwidth
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
    if len(bulk):
        # The first flow that is misaddressed or claims a taken slot:
        # an earlier flow of the batch, a unicast, or a broadcaster's.
        src, dst = bulk.src, bulk.dst
        bad = (src == dst) | (dst < 0) | (dst >= n) | (src < 0) | (src >= n)
        keys = src * n + dst
        clash = np.ones(keys.size, dtype=bool)
        clash[np.unique(keys, return_index=True)[1]] = False
        if us.size:
            clash |= np.isin(keys, us * n + ud)
        if bs.size:
            clash |= np.isin(src, bs)
        err = bad | clash
        if err.any():
            i = _first(err)
            s, d = int(src[i]), int(dst[i])
            if bad[i]:
                raise InvalidAddress(f"bulk send {s} -> {d} is invalid (n={n})")
            raise DuplicateMessage(s, d)
    return bs, bv, bw, us, ud, uv, uw


def _sent_accounting(
    n: int, bs, bw, us, uw, bulk: BulkBatch
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
    if len(bulk):
        bulk_bits = int(bulk.nbits.sum())
        np.add.at(sent, bulk.src, bulk.nbits)
        np.add.at(received, bulk.dst, bulk.nbits)
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
