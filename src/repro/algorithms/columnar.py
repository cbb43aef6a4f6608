"""Array-program ports of the hottest catalog algorithms.

These are the columnar (:class:`repro.engine.columnar.ArrayContext`)
forms of fan-out broadcasting, :func:`repro.clique.routing.route` (all
three schemes), cube-partitioned matrix multiplication and PSRS sorting.
Each port mirrors its generator twin *round for round and bit for bit*:
the same chunking (MSB-first at the per-link budget ``B``), the same
header exchanges, the same privileged bulk-channel usage — so
``repro.engine.diff`` can differentially gate the columnar engine
against the reference engine on identical round counts, outputs and bit
totals.

The collectives come in two accumulator flavours chosen by payload
width: payloads of at most 64 bits stay in ``(n, n)`` ``uint64``
matrices updated by whole-column shifts (the vectorised fast path);
wider payloads accumulate one Python big int per *source*, since a
broadcast round hands every destination the same column, and fall
back to per-pair big ints only from the first round delivered
message by message (faults, transcripts).  Chunks themselves always
fit ``uint64`` because they are at most ``B`` bits — the ports require
``B <= 64``.

Routed flows are :class:`~repro.engine.columnar.BulkBatch` lane
columns.  matmul and sorting write one matrix entry or key per lane,
which is the codec's bit layout with no packing, hand the batch to the
``lenzen`` bulk channel as is, and read the received lanes back by
index arithmetic.  A received flow whose lanes are not one field each
(a replayed message under faults, or a payload the ``direct``/``relay``
schemes reassembled) is read through its payload int instead, in the
generator twin's node order, so errors match the twin's.  Relay
routing keeps a queue only for links that carry traffic, so its state
grows with the flows, not with ``n**2``.
"""

from __future__ import annotations

import math
import mmap
from collections import deque
from typing import Generator

import numpy as np

from ..clique.bits import BitString, uint_width
from ..clique.errors import CliqueError, EncodingError, ProtocolViolation
from ..clique.primitives import chunks_needed
from ..clique.routing import (
    _LEN_WIDTH,
    _STATUS_PERIOD,
    ROUTE_SCHEMES,
    _relay_bad_peer,
    _relay_bad_width,
    _relay_of,
    _relay_position,
    _unannounced_chunk,
    relay_min_bandwidth,
)
from ..engine.columnar import BulkBatch, array_program, int_lanes, segment_ranges
from .matmul import Semiring

__all__ = [
    "array_all_broadcast",
    "array_all_gather_uint",
    "array_agree_uint_max",
    "array_route",
    "fanout_array",
    "fanout_generator",
    "fanout_work_array",
    "fanout_work_generator",
    "routing_array",
    "routing_generator",
    "matmul_array",
    "sorting_array",
]

_I64 = np.int64
_U64 = np.uint64
_U8 = np.uint8
#: Fields gathered or scattered per step of a chunked loop: index
#: columns that stay small beside the lane columns they address.
_CHUNK = 1 << 14


def _require_narrow_links(ctx) -> None:
    if ctx.bandwidth > 64:
        raise CliqueError(
            f"columnar ports carry one chunk per uint64 lane and need a "
            f"per-link budget of at most 64 bits, got B={ctx.bandwidth}; "
            f"run this configuration on another engine"
        )


def _enqueue(queues: dict, active: set, key: int, item) -> None:
    """Append ``item`` to the lazily created queue ``queues[key]``."""
    q = queues.get(key)
    if q is None:
        q = queues[key] = deque()
    q.append(item)
    active.add(key)


def _chunk_layout(k: int, b: int) -> list[int]:
    """Chunk widths of a ``k``-bit payload split at ``b`` (MSB first)."""
    if k <= 0:
        return []
    full, tail = divmod(k, b)
    return [b] * full + ([tail] if tail else [])


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


def array_all_broadcast(
    ctx, values, k: int
) -> Generator[None, None, list[list[int]]]:
    """Columnar :func:`repro.clique.primitives.all_broadcast`.

    Every node broadcasts a ``k``-bit payload (``values[v]`` for node
    ``v``); returns ``result[dst][src]`` with every reassembled payload
    (own payload included), raising :class:`ProtocolViolation` exactly
    like the generator form when a payload does not reassemble to ``k``
    bits.  Takes ``ceil(k / B)`` rounds.
    """
    _require_narrow_links(ctx)
    n, b = ctx.n, ctx.bandwidth
    vals = [int(v) for v in values]
    if k == 0:
        return [[0] * n for _ in range(n)]
    widths = _chunk_layout(k, b)
    small = k <= 64
    if small:
        acc = np.zeros((n, n), dtype=_U64)
    else:
        # A broadcast-path round hands every destination the same
        # column, so it folds into one big int per source (``col`` with
        # ``col_w`` bits); per-pair rows exist only once an explicit
        # round arrives, and ``col`` then holds what came after it.
        rows: list[list[int]] | None = None
        col = [0] * n
        col_w = [0] * n
    got = np.zeros((n, n), dtype=_I64)
    sent = 0
    for w in widths:
        shift = k - sent - w
        mask = (1 << w) - 1
        chunk = [(v >> shift) & mask for v in vals]
        sent += w
        ctx.broadcast(np.asarray(chunk, dtype=_U64), w)
        yield
        bs, bv, _bw = ctx.inbox_broadcast
        if bs.size:
            # Fast path: the emission columns are the delivery, and the
            # whole-column update covers the local own-payload append
            # (diagonal) with the identical value.
            if small:
                acc[:, bs] = (acc[:, bs] << _U64(w)) | bv
            else:
                for s, v in zip(bs.tolist(), bv.tolist()):
                    col[s] = (col[s] << w) | v
                    col_w[s] += w
            got[:, bs] += w
        else:
            # Explicit path: broadcasts arrive expanded per recipient;
            # the own chunk never transits and is appended locally.
            src, dst, val, wid = ctx.inbox_messages
            if not small:
                rows = _fold_columns(rows, col, col_w)
            if src.size:
                if small:
                    acc[dst, src] = (
                        acc[dst, src] << wid.astype(_U64)
                    ) | val
                else:
                    for d, s, v, vw in zip(
                        dst.tolist(), src.tolist(), val.tolist(), wid.tolist()
                    ):
                        rows[d][s] = (rows[d][s] << vw) | v
                np.add.at(got, (dst, src), wid)
            diag = np.arange(n)
            if small:
                acc[diag, diag] = (acc[diag, diag] << _U64(w)) | np.asarray(
                    chunk, dtype=_U64
                )
            else:
                for v in range(n):
                    rows[v][v] = (rows[v][v] << w) | chunk[v]
            got[diag, diag] += w
    bad = got != k
    if bad.any():
        dst, src = np.argwhere(bad)[0]
        raise ProtocolViolation(
            f"all_broadcast: node {int(dst)} reassembled {int(got[dst, src])} "
            f"bits from node {int(src)}, expected {k}"
        )
    if small:
        return acc.tolist()
    return _fold_columns(rows, col, col_w)


def _fold_columns(
    rows: list[list[int]] | None, col: list[int], col_w: list[int]
) -> list[list[int]]:
    """Append each source's pending column bits (``col[s]``, ``col_w[s]``
    bits) to every destination's row, then reset the columns."""
    n = len(col)
    if rows is None:
        rows = [list(col) for _ in range(n)]
    else:
        for s in range(n):
            if col_w[s]:
                for row in rows:
                    row[s] = (row[s] << col_w[s]) | col[s]
    col[:] = [0] * n
    col_w[:] = [0] * n
    return rows


def array_all_gather_uint(
    ctx, values, width: int
) -> Generator[None, None, list[list[int]]]:
    """Columnar ``all_gather_uint``: ``result[dst][src]`` uint values."""
    return (yield from array_all_broadcast(ctx, values, width))


def array_agree_uint_max(
    ctx, values, width: int
) -> Generator[None, None, list[int]]:
    """Columnar ``agree_uint_max``: each node's view of the maximum."""
    rows = yield from array_all_gather_uint(ctx, values, width)
    return [max(row) for row in rows]


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------
#
# Flows go in and come out as a :class:`~repro.engine.columnar.BulkBatch`.
# ``direct`` and ``relay`` chunk payload ints, so they convert at their
# boundary; ``lenzen`` hands the batch to the bulk channel unchanged.


def array_route(ctx, flows: BulkBatch, scheme: str = "lenzen"):
    """Columnar :func:`repro.clique.routing.route` — all three schemes.

    ``flows`` lists each source's flows together, sources ascending and
    each source's flows in the order of its generator twin's ``flows``
    dict; a flow to its own source is delivered locally.  Returns
    ``(received, failure)``: the received flows, each destination's in
    the order of its twin's result dict (the flows of different
    destinations interleave), and ``(node, error)`` for the first node
    whose ``lenzen`` route fails its delivery check, or ``None``.  The
    twins of the nodes below run on past the route, so the caller raises
    ``error`` only after what their code raises first; ``direct`` and
    ``relay`` raise their errors themselves.

    Mirrors the generator collective exactly: a sparse 32-bit length
    exchange on flow links, the per-node payload-load counters, then the
    scheme phase (``direct`` chunking, the ``lenzen`` cost-model bulk
    channel, or the executable ``relay`` store-and-forward protocol).
    """
    if scheme not in ROUTE_SCHEMES:
        raise ProtocolViolation(f"unknown routing scheme {scheme!r}")
    _require_narrow_links(ctx)
    n, b = ctx.n, ctx.bandwidth
    if not flows.nbits.all():
        flows = flows.take(flows.nbits > 0)
    own = flows.src == flows.dst
    bad = ~own & ((flows.dst < 0) | (flows.dst >= n))
    if bad.any():
        raise ProtocolViolation(
            f"flow destination {int(flows.dst[np.argmax(bad)])} out of range"
        )
    # Self flows go last, so the rest is a view of the lanes (and the
    # whole batch is the result when the channel hands it back).
    k = own.size - int(np.count_nonzero(own))
    every = flows
    if own[:k].any():
        every = BulkBatch.concat([flows.take(~own), flows.take(own)])
    flows, self_flows = every.split(k)
    if n == 1:
        return every, None

    # ---- Phase 1: sparse length exchange (headers only on flow links).
    hdr_len = flows.nbits.astype(_U64)
    acc_len = np.zeros((n, n), dtype=_U64)
    got_len = np.zeros((n, n), dtype=_I64)
    sent_bits = 0
    for w in _chunk_layout(_LEN_WIDTH, b):
        shift = _LEN_WIDTH - sent_bits - w
        sent_bits += w
        if len(flows):
            chunk = (hdr_len >> _U64(shift)) & _U64((1 << w) - 1)
            ctx.send(flows.src, flows.dst, chunk, w)
        yield
        src, dst, val, wid = ctx.inbox_messages
        if src.size:
            acc_len[dst, src] = (acc_len[dst, src] << wid.astype(_U64)) | val
            np.add.at(got_len, (dst, src), wid)
    in_dst, in_src = np.nonzero(got_len)
    in_len = acc_len[in_dst, in_src].astype(_I64)

    out_col = np.zeros(n, dtype=_I64)
    np.add.at(out_col, flows.src, flows.nbits)
    in_col = np.zeros(n, dtype=_I64)
    np.add.at(in_col, in_dst, in_len)
    ctx.count("route_payload_out_bits", out_col)
    ctx.count("route_payload_in_bits", in_col)

    failure = None
    if scheme == "lenzen":
        result, failure = yield from _array_route_lenzen(
            ctx, flows, (in_dst, in_src, in_len), np.maximum(out_col, in_col)
        )
        if result is flows:
            # A fault-free round delivers the sent batch itself, and the
            # self flows follow it in ``every``.
            return every, failure
    else:
        live: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
        for s, d, value, nbits in flows:
            live[s][d] = (value, nbits)
        in_lengths: list[dict[int, int]] = [{} for _ in range(n)]
        for d, s, length in zip(in_dst.tolist(), in_src.tolist(), in_len.tolist()):
            in_lengths[d][s] = length
        boxes: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
        phase = _array_route_direct if scheme == "direct" else _array_route_relay
        yield from phase(ctx, live, in_lengths, boxes)
        items = [
            (s, d, *item) for d, box in enumerate(boxes) for s, item in box.items()
        ]
        src, dst, values, nbits = zip(*items) if items else ((), (), (), ())
        result = BulkBatch(src, dst, *int_lanes(values, nbits))

    if len(self_flows):
        result = BulkBatch.concat([result, self_flows])
    return result, failure


def _array_route_direct(
    ctx, live, in_lengths, result
) -> Generator[None, None, None]:
    n, b = ctx.n, ctx.bandwidth
    my_rounds = [
        max(
            (
                chunks_needed(length, b)
                for length in (
                    list(in_lengths[v].values())
                    + [nb for _val, nb in live[v].values()]
                )
            ),
            default=0,
        )
        for v in range(n)
    ]
    totals = yield from array_agree_uint_max(ctx, my_rounds, _LEN_WIDTH)
    total_rounds = totals[0]

    chunked: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s in range(n):
        for d, (value, nbits) in live[s].items():
            chunked[(s, d)] = [
                (c.value, len(c)) for c in BitString(value, nbits).split(b)
            ]
    acc: dict[tuple[int, int], tuple[int, int]] = {}

    def finish(nodes) -> None:
        for dst in nodes:
            for s, expected in in_lengths[dst].items():
                if expected <= 0:
                    continue
                value, bits = acc.get((dst, s), (0, 0))
                if bits < expected:
                    raise ProtocolViolation(
                        f"route: node {dst} received {bits} of "
                        f"{expected} bits from node {s}"
                    )
                result[dst][s] = (value >> (bits - expected), expected)

    for r in range(total_rounds):
        esrc, edst, evals, ewids = [], [], [], []
        for (s, d), chunks in chunked.items():
            if r < len(chunks):
                value, w = chunks[r]
                esrc.append(s)
                edst.append(d)
                evals.append(value)
                ewids.append(w)
        if esrc:
            ctx.send(
                np.asarray(esrc, dtype=_I64),
                np.asarray(edst, dtype=_I64),
                np.asarray(evals, dtype=_U64),
                np.asarray(ewids, dtype=_I64),
            )
        yield
        src, dst, val, wid = ctx.inbox_messages
        for i in range(src.size):
            key = (int(dst[i]), int(src[i]))
            if in_lengths[key[0]].get(key[1], 0) <= 0:
                if r == total_rounds - 1:
                    # The generator twin's lower nodes finish (and may
                    # fail) before this node reads its last inbox.
                    finish(range(key[0]))
                raise _unannounced_chunk(*key)
            value, bits = acc.get(key, (0, 0))
            acc[key] = (
                (value << int(wid[i])) | int(val[i]),
                bits + int(wid[i]),
            )
    finish(range(n))


def _array_route_lenzen(ctx, flows: BulkBatch, inbound, loads: np.ndarray):
    n, b = ctx.n, ctx.bandwidth
    max_loads = yield from array_agree_uint_max(ctx, loads.tolist(), _LEN_WIDTH)
    charged = max(0, math.ceil(max_loads[0] / (b * (n - 1))))
    if charged == 0:
        return BulkBatch.concat([]), None
    ctx.bulk_send(flows)
    yield
    received = _first_inbox(ctx)
    for _ in range(charged - 1):
        yield
    in_dst, in_src, in_len = inbound
    keys = received.dst * n + received.src
    order = np.argsort(keys, kind="stable")
    want = in_dst * n + in_src
    at = np.minimum(np.searchsorted(keys, want, sorter=order), max(keys.size - 1, 0))
    got = np.zeros(want.size, dtype=_I64)
    if keys.size:
        hit = keys[order[at]] == want
        got[hit] = received.nbits[order[at[hit]]]
    bad = (in_len > 0) & (got != in_len)
    failure = None
    if bad.any():
        i = int(np.argmax(bad))
        failure = (
            int(in_dst[i]),
            ProtocolViolation(
                f"route(lenzen): node {int(in_dst[i])} expected {int(in_len[i])} "
                f"bits from {int(in_src[i])}, got {int(got[i])}"
            ),
        )
    if not received.nbits.all():
        received = received.take(received.nbits > 0)
    return received, failure


def _first_inbox(ctx) -> BulkBatch:
    """The first charged round's inbox as flows, read like the generator
    twin's inbox dict: the round's messages (replays, forgeries) as
    one-lane flows first, then the bulk flows, a bulk flow taking over
    the slot of a message on its link."""
    bulk = ctx.inbox_bulk
    src, dst, val, wid = ctx.inbox_messages
    if not src.size:
        return bulk
    both = BulkBatch.concat([BulkBatch(src, dst, val, wid), bulk])
    slots: dict[int, int] = {}
    for i, key in enumerate((both.dst * ctx.n + both.src).tolist()):
        slots[key] = i
    return both.take(np.fromiter(slots.values(), dtype=_I64, count=len(slots)))


def _array_route_relay(
    ctx, live, in_lengths, result
) -> Generator[None, None, None]:
    n, b = ctx.n, ctx.bandwidth
    if n == 2:
        yield from _array_route_direct(ctx, live, in_lengths, result)
        return
    node_w = uint_width(max(1, n - 1))
    payload_w = b - 1 - node_w
    if payload_w < 1:
        raise ProtocolViolation(
            f"relay routing needs bandwidth >= {relay_min_bandwidth(n)} bits "
            f"(got {b}); run with bandwidth_multiplier >= 2"
        )
    msg_w = 1 + node_w + payload_w
    peer_mask = (1 << node_w) - 1
    chunk_mask = (1 << payload_w) - 1

    # Link queues are keyed by ``me * n + peer`` and exist only while the
    # link carries traffic; ``active`` holds the keys of nonempty queues
    # and ``queued[me]`` counts the items queued at ``me``.
    spread: dict[int, deque] = {}
    forward: dict[int, deque] = {}
    active: set[int] = set()
    queued = [0] * n
    expect = [
        {s: math.ceil(length / payload_w) for s, length in in_lengths[me].items()}
        for me in range(n)
    ]
    store = [
        {s: {} for s, c in expect[me].items() if c > 0} for me in range(n)
    ]
    seen = [dict() for _ in range(n)]
    remaining = [sum(expect[me].values()) for me in range(n)]

    for me in range(n):
        for d, (value, nbits) in live[me].items():
            chunks = [
                (c.value, len(c)) for c in BitString(value, nbits).split(payload_w)
            ]
            if chunks and chunks[-1][1] < payload_w:  # pad the tail chunk
                tv, tw = chunks[-1]
                chunks[-1] = (tv << (payload_w - tw), payload_w)
            for i, (cv, _cw) in enumerate(chunks):
                _enqueue(spread, active, me * n + _relay_of(me, d, i, n), (d, cv))
            queued[me] += len(chunks)

    def satisfied(me: int) -> bool:
        return remaining[me] == 0 and queued[me] == 0

    def accept(me: int, src: int, relay: int, chunk_val: int) -> None:
        if src not in store[me]:
            raise ProtocolViolation(
                f"route(relay): node {me} got unexpected chunk from {src}"
            )
        k = seen[me].get((src, relay), 0)
        seen[me][(src, relay)] = k + 1
        index = _relay_position(src, me, relay, n) + k * (n - 1)
        if index >= expect[me][src]:
            raise ProtocolViolation(
                f"route(relay): node {me} got chunk index {index} beyond "
                f"expected {expect[me][src]} from {src}"
            )
        if index in store[me][src]:
            raise ProtocolViolation(
                f"route(relay): node {me} got duplicate chunk {index} "
                f"from {src}"
            )
        store[me][src][index] = chunk_val
        remaining[me] -= 1

    data_round = 0
    while True:
        if data_round % (_STATUS_PERIOD + 1) == _STATUS_PERIOD:
            sat = [1 if satisfied(me) else 0 for me in range(n)]
            ctx.broadcast(np.asarray(sat, dtype=_U64), 1)
            yield
            data_round += 1
            ok = np.ones(n, dtype=bool)
            bs, bv, _bw = ctx.inbox_broadcast
            if bs.size:
                zeros = bs[bv == 0]
                if zeros.size == 1:
                    ok[:] = False
                    ok[int(zeros[0])] = True
                elif zeros.size > 1:
                    ok[:] = False
            src, dst, val, _wid = ctx.inbox_messages
            if src.size:
                np.logical_and.at(ok, dst, val == 1)
            done = [bool(sat[me]) and bool(ok[me]) for me in range(n)]
            if all(done):
                break
            if any(done):
                raise ProtocolViolation(
                    "route(relay): nodes disagree on completion (lossy "
                    "delivery is not survivable by the raw relay protocol)"
                )
            continue

        # Data round: one message per active link, forward traffic first.
        # Sorted link keys are the (me, peer) order of the generator twin's
        # per-node loops, so inbox and FIFO orders match it.
        links = sorted(active)
        evals = []
        for key in links:
            fq = forward.get(key)
            if fq:
                src0, cv = fq.popleft()
                evals.append((((1 << node_w) | src0) << payload_w) | cv)
            else:
                dstf, cv = spread[key].popleft()
                evals.append((dstf << payload_w) | cv)
            if not fq and not spread.get(key):
                active.discard(key)
            queued[key // n] -= 1
        if links:
            keys = np.asarray(links, dtype=_I64)
            ctx.send(keys // n, keys % n, np.asarray(evals, dtype=_U64), msg_w)
        yield
        data_round += 1
        src, dst, val, wid = ctx.inbox_messages
        # The generator twin fails at the first frame of the wrong width,
        # after reading every message before it.
        bad = np.flatnonzero(wid != msg_w)
        stop = int(bad[0]) if bad.size else src.size
        for me, sender, raw in zip(
            dst[:stop].tolist(), src[:stop].tolist(), val[:stop].tolist()
        ):
            tag = raw >> (msg_w - 1)
            peer_id = (raw >> payload_w) & peer_mask
            chunk_val = raw & chunk_mask
            if tag == 0:
                if peer_id == me:
                    accept(me, sender, me, chunk_val)
                elif peer_id >= n:
                    raise _relay_bad_peer(me, peer_id, sender)
                else:
                    _enqueue(forward, active, me * n + peer_id, (sender, chunk_val))
                    queued[me] += 1
            else:
                accept(me, peer_id, sender, chunk_val)
        if bad.size:
            raise _relay_bad_width(
                int(dst[stop]), int(src[stop]), int(wid[stop]), msg_w
            )

    for me in range(n):
        for s, chunks in store[me].items():
            m = expect[me][s]
            for i in range(m):
                if i not in chunks:
                    raise ProtocolViolation(
                        f"route(relay): node {me} missing chunk {i} of flow "
                        f"from {s}"
                    )
            merged = 0
            for i in range(m):
                merged = (merged << payload_w) | chunks[i]
            length = in_lengths[me][s]
            result[me][s] = (merged >> (m * payload_w - length), length)


# ---------------------------------------------------------------------------
# Catalog ports
# ---------------------------------------------------------------------------


_FANOUT_MUL = 1103515245
_FANOUT_INC = 12345


def _fanout_width(bandwidth: int) -> int:
    return min(bandwidth, 48)


def fanout_generator(node) -> Generator[None, None, tuple[int, int]]:
    """Generator form of the fan-out stress program.

    ``node.aux`` rounds of all-to-all broadcasts of an evolving value;
    returns ``(messages received, xor fold of received values)`` — an
    output that is sensitive to every individual delivery, which makes
    the fault-plan parity diff an output-level check.
    """
    rounds = int(node.aux)
    w = _fanout_width(node.bandwidth)
    mask = (1 << w) - 1
    x = int(node.input) & mask
    count = 0
    fold = 0
    for r in range(rounds):
        node.send_to_all(BitString(x, w))
        yield
        for _src, msg in node.inbox.items():
            count += 1
            fold ^= msg.value
        x = (x * _FANOUT_MUL + _FANOUT_INC + r) & mask
    return (count, fold)


@array_program
def fanout_array(ctx) -> Generator[None, None, list[tuple[int, int]]]:
    """Columnar twin of :func:`fanout_generator` — fully vectorised."""
    n = ctx.n
    rounds = int(ctx.auxes[0])
    w = _fanout_width(ctx.bandwidth)
    mask = _U64((1 << w) - 1)
    x = np.asarray([int(v) for v in ctx.inputs], dtype=_U64) & mask
    count = np.zeros(n, dtype=_I64)
    fold = np.zeros(n, dtype=_U64)
    for r in range(rounds):
        ctx.broadcast(x, w)
        yield
        bs, bv, _bw = ctx.inbox_broadcast
        if bs.size:
            total = np.bitwise_xor.reduce(bv)
            fold ^= total
            fold[bs] ^= bv
            count += bs.size
            count[bs] -= 1
        src, dst, val, _wid = ctx.inbox_messages
        if src.size:
            np.add.at(count, dst, 1)
            np.bitwise_xor.at(fold, dst, val)
        x = (x * _U64(_FANOUT_MUL) + _U64(_FANOUT_INC + r)) & mask
    return [(int(count[v]), int(fold[v])) for v in range(n)]


# -- fanout_work: the compute-heavy stress program ---------------------------
#
# ``fanout`` is communication-bound: O(n) vector work per round.
# ``fanout_work`` adds a per-node hidden state of ``state`` uint64 lanes
# put through ``passes`` xorshift-multiply mixing passes per round —
# O(n * state * passes) elementwise program compute — and exchanges
# digests over a k-regular ring (unicast only, so the fast and explicit
# delivery paths agree message for message).  Both twins run their lane
# arithmetic through the same numpy uint64 helpers, so the wrapping
# semantics are identical by construction.

_WORK_SEED_A = 0x9E3779B97F4A7C15
_WORK_SEED_B = 0xBF58476D1CE4E5B9
_WORK_MUL = 0x2545F4914F6CDD1D
_WORK_RC_A = 0x9E3779B1
_WORK_RC_B = 0x85EBCA77
_M64 = (1 << 64) - 1


def _work_degree(n: int) -> int:
    return min(8, n - 1)


def _work_state(values, m: int) -> np.ndarray:
    """``(len(values), m)`` uint64 lane matrix seeded from the inputs."""
    vals = np.asarray([int(v) & _M64 for v in values], dtype=_U64)
    lanes = np.arange(m, dtype=_U64)
    return (
        vals[:, None] * _U64(_WORK_SEED_A)
        + lanes[None, :] * _U64(_WORK_SEED_B)
        + _U64(1)
    )


def _work_mix(state: np.ndarray, r: int, passes: int) -> np.ndarray:
    """``passes`` in-place xorshift-multiply rounds over the lane axis."""
    for p in range(passes):
        state ^= state << _U64(13)
        state ^= state >> _U64(7)
        state ^= state << _U64(17)
        state *= _U64(_WORK_MUL)
        state += _U64(((r + 1) * _WORK_RC_A + p * _WORK_RC_B) & _M64)
    return state


def _work_digest(state: np.ndarray, mask) -> np.ndarray:
    """Per-node ``w``-bit digest: lane xor-fold, avalanched, masked."""
    d = np.bitwise_xor.reduce(state, axis=-1)
    d ^= d >> _U64(29)
    return d & mask


def _work_params(aux) -> tuple[int, int, int]:
    aux = dict(aux)
    return (
        int(aux.get("rounds", 3)),
        int(aux.get("state", 16)),
        int(aux.get("passes", 2)),
    )


def fanout_work_generator(node) -> Generator[None, None, tuple[int, int]]:
    """Generator form of the compute-heavy fan-out stress program.

    Each round: mix the hidden lane state, unicast the digest to the
    ``min(8, n-1)`` next ring neighbours, then fold the received
    digests back into lane 0.  Returns ``(messages received, xor fold
    of received values ^ final digest)`` — sensitive to every delivery
    *and* every mixing pass.
    """
    n = node.n
    rounds, m, passes = _work_params(node.aux)
    w = _fanout_width(node.bandwidth)
    mask = _U64((1 << w) - 1)
    k = _work_degree(n)
    state = _work_state([node.input], m)[0]
    count = 0
    fold = 0
    for r in range(rounds):
        _work_mix(state, r, passes)
        digest = int(_work_digest(state, mask))
        for off in range(1, k + 1):
            node.send((node.id + off) % n, BitString(digest, w))
        yield
        rf = 0
        for _src, msg in node.inbox.items():
            count += 1
            fold ^= msg.value
            rf ^= msg.value
        state[0] ^= _U64(rf)
    _work_mix(state, rounds, passes)
    final = int(_work_digest(state, mask))
    return (count, fold ^ final)


@array_program
def fanout_work_array(ctx) -> Generator[None, None, list[tuple[int, int]]]:
    """Columnar twin of :func:`fanout_work_generator`.

    The lane state is held as an ``(n, m)`` matrix, digests go out
    src-major, and the received digests are folded back with scatter
    reductions.
    """
    n = ctx.n
    rounds, m, passes = _work_params(ctx.auxes[0])
    w = _fanout_width(ctx.bandwidth)
    mask = _U64((1 << w) - 1)
    k = _work_degree(n)
    state = _work_state(ctx.inputs, m)
    count = np.zeros(n, dtype=_I64)
    fold = np.zeros(n, dtype=_U64)
    offs = np.arange(1, k + 1, dtype=_I64)
    src_col = np.repeat(ctx.ids, k)
    dst_col = (src_col + np.tile(offs, n)) % n
    for r in range(rounds):
        _work_mix(state, r, passes)
        digest = _work_digest(state, mask)
        if k:
            ctx.send(src_col, dst_col, np.repeat(digest, k), w)
        yield
        src, dst, val, _wid = ctx.inbox_messages
        rf = np.zeros(n, dtype=_U64)
        if src.size:
            np.add.at(count, dst, 1)
            np.bitwise_xor.at(fold, dst, val)
            np.bitwise_xor.at(rf, dst, val)
        state[:, 0] ^= rf
    _work_mix(state, rounds, passes)
    final = _work_digest(state, mask)
    return [(int(count[v]), int(fold[v]) ^ int(final[v])) for v in range(n)]


def _flow_length(src: int, dst: int) -> int:
    return 24 + 8 * ((src + 2 * dst) % 5)


def _flow_value(src: int, dst: int, length: int) -> int:
    """Deterministic pseudo-random payload bits for the routing catalog."""
    x = ((src * 0x9E3779B1) ^ (dst * 0x85EBCA77) ^ 0x27220A95) & 0xFFFFFFFF
    out = 0
    for _ in range(math.ceil(length / 32)):
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        out = (out << 32) | x
    return out >> (32 * math.ceil(length / 32) - length)


def _routing_dsts(src: int, n: int) -> list[int]:
    return sorted({(src + 1) % n, (src + 5) % n})


def routing_generator(node) -> Generator[None, None, tuple]:
    """Generator form of the routing catalog entry (relay by default)."""
    n = node.n
    scheme = str(node.aux or "relay")
    from ..clique.routing import route

    flows = {
        d: BitString(_flow_value(node.id, d, _flow_length(node.id, d)),
                     _flow_length(node.id, d))
        for d in _routing_dsts(node.id, n)
    }
    received = yield from route(node, flows, scheme=scheme)
    return tuple(sorted((s, len(p), p.value) for s, p in received.items()))


def routing_array(ctx) -> Generator[None, None, list[tuple]]:
    """Columnar twin of :func:`routing_generator`."""
    n = ctx.n
    scheme = str(ctx.auxes[0] or "relay")
    pairs = [(src, d) for src in range(n) for d in _routing_dsts(src, n)]
    lengths = [_flow_length(src, d) for src, d in pairs]
    values = [_flow_value(src, d, nb) for (src, d), nb in zip(pairs, lengths)]
    src, dst = zip(*pairs)
    received, failure = yield from array_route(
        ctx, BulkBatch(src, dst, *int_lanes(values, lengths)), scheme=scheme
    )
    if failure is not None:
        raise failure[1]
    boxes: list[list[tuple]] = [[] for _ in range(n)]
    for s, d, value, nbits in received:
        boxes[d].append((s, nbits, value))
    return [tuple(sorted(box)) for box in boxes]


def _take_bits(value: int, nbits: int, pos: int, width: int) -> int:
    """Bits ``[pos, pos + width)`` (MSB first) of a ``nbits``-bit payload,
    raising the overrun error of :meth:`BitReader.read_bits`."""
    if pos + width > nbits:
        raise EncodingError(
            f"read of {width} bits at offset {pos} overruns {nbits}-bit message"
        )
    return (value >> (nbits - pos - width)) & ((1 << width) - 1)


def _field_lanes(values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Lane columns of nonnegative ``width``-bit fields (values below
    ``2**64``): one lane per field up to 64 bits, else zero lanes ahead
    of the value.  Returns ``(values, widths, lanes per field)``."""
    values = values.astype(_U64, copy=False)
    if width <= 64:
        return values, np.broadcast_to(_U8(width), values.shape), 1
    k = -(-width // 64)
    lanes = np.zeros((values.size, k), dtype=_U64)
    lanes[:, -1] = values
    widths = np.full(k, 64, dtype=_U8)
    widths[0] = width - 64 * (k - 1)
    return lanes.ravel(), np.tile(widths, values.size), k


def _unfit(x: np.ndarray, width: int) -> np.ndarray:
    """Entries the codec rejects at ``width`` bits (negative or too wide)."""
    bad = x < 0
    if width < 63:
        bad |= x >= (1 << width)
    return bad


def _lane_column(size: int) -> np.ndarray:
    """An uninitialised ``uint64`` lane column of ``size`` lanes.

    One of more than a MiB gets a mapping of its own instead of a malloc
    block: freeing a malloc block that large raises glibc's dynamic mmap
    threshold to its size, after which every smaller array lands on the
    heap and the process keeps those pages.  On a 2-vCPU VM that took
    the ``columnar-large`` benchmark's peak RSS from 65.7 to 61.6 MiB.
    """
    if size * 8 <= 1 << 20:
        return np.empty(size, dtype=_U64)
    return np.frombuffer(mmap.mmap(-1, size * 8), dtype=_U64)


def _field_chunks(values: np.ndarray, first: np.ndarray, counts: np.ndarray):
    """Yield ``(part, fields)`` over slices ``part`` of the segments, with
    ``fields`` the ``counts[i]`` entries of ``values`` from ``first[i]``
    for each segment in the slice; a slice spans at most ``_CHUNK``
    fields, so the index columns stay small beside the values."""
    step = max(1, _CHUNK // max(1, int(counts.max(initial=0))))
    for lo in range(0, counts.size, step):
        part = slice(lo, lo + step)
        yield part, values[segment_ranges(first[part], counts[part])]


def _twin_reads(flows: BulkBatch, failure, wanted=None):
    """``(flow, payload int)`` pairs in the order the generator twins read
    their received dicts: node by node, each in arrival order, up to the
    node whose route failed (``failure``), and only ``wanted`` flows."""
    order = np.argsort(flows.dst, kind="stable")
    keep = np.ones(order.size, dtype=bool) if wanted is None else wanted[order]
    if failure is not None:
        keep &= flows.dst[order] < failure[0]
    order = order[keep].tolist()
    return zip(order, flows.payloads(order))


class _Cube:
    """The cube partition of matrix multiplication over ``n`` nodes.

    ``g = floor(n ** (1/3))`` row blocks of stride ``size`` (the last may
    be shorter); cube node ``t`` is ``(ta[t], tb[t], tc[t])`` in
    ``[g]^3``.  Every entry travels as one lane (``in_w`` bits on the
    way in, ``acc_w`` on the way out), so blocks are gathered from and
    scattered into stacked arrays by index arithmetic, and the cube's
    block products are one batched multiply over blocks padded to
    ``size`` (RING's zero pads nothing into a sum).  A received flow
    whose lanes are not one entry each (a replayed message under faults,
    or a payload the ``direct``/``relay`` schemes reassembled) makes the
    whole read go through payload ints instead, node by node in the
    generator twin's order, so a short flow raises the twin's overrun
    error.
    """

    def __init__(self, n: int, semiring: Semiring, max_entry: int) -> None:
        from .common import group_partition, int_ceil_root

        self.n = n
        self.semiring = semiring
        self.in_w = semiring.in_width(n, max_entry)
        self.acc_w = semiring.acc_width(n, max_entry)
        self.g = g = int_ceil_root(n, 3)
        self.blocks = group_partition(n, g)
        self.size = math.ceil(n / g)
        self.lens = np.asarray([len(blk) for blk in self.blocks], dtype=_I64)
        self.starts = np.arange(g, dtype=_I64) * self.size
        self.block = np.minimum(np.arange(n) // self.size, g - 1)
        t = np.arange(g**3, dtype=_I64)
        self.ta, self.tb, self.tc = t // (g * g), (t // g) % g, t % g

    def inputs(self, rows) -> BulkBatch:
        """Phase 1: node ``v`` of block ``m`` sends cube node ``(a, b, c)``
        its A row on block ``b`` if ``a == m``, then its B row on block
        ``c`` if ``b == m`` (``rows[v]`` is ``(A[v], B[v])``)."""
        n, lens, starts = self.n, self.lens, self.starts
        ab = np.asarray(
            [[np.asarray(rows[v][k], dtype=_I64) for v in range(n)] for k in (0, 1)]
        )
        ta, tb, tc = self.ta, self.tb, self.tc
        bad = np.flatnonzero(_unfit(ab, self.in_w).any(axis=(0, 2)))
        if bad.size:
            # The twin's ascending-``t`` encode loop of the first node
            # with an unfit entry raises the codec's error.
            me, m = int(bad[0]), int(self.block[bad[0]])
            for t in np.flatnonzero((ta == m) | (tb == m)).tolist():
                if ta[t] == m:
                    self._encode(ab[0, me, self.blocks[tb[t]]], self.in_w)
                if tb[t] == m:
                    self._encode(ab[1, me, self.blocks[tc[t]]], self.in_w)
        targets = np.stack(
            [np.flatnonzero((ta == m) | (tb == m)) for m in range(self.g)]
        )
        src = np.repeat(np.arange(n, dtype=_I64), targets.shape[1])
        dst = targets[self.block].ravel()
        m = self.block[src]
        a_cnt = np.where(ta[dst] == m, lens[tb[dst]], 0)
        b_cnt = np.where(tb[dst] == m, lens[tc[dst]], 0)
        first = np.stack(
            [src * n + starts[tb[dst]], n * n + src * n + starts[tc[dst]]], 1
        )
        counts = np.stack([a_cnt, b_cnt], 1)
        return self._flows(ab.reshape(-1), src, dst, first, counts, self.in_w)

    def products(self, received: BulkBatch, failure):
        """Phase 2: every cube node's block product, padded to ``size``,
        and the first failure of the twin's nodes as ``(node, error)``:
        ``failure`` (the route's), unless a read of a lower node overruns
        its flow first.

        Flow ``src -> t`` fills row ``src - start`` of t's A block (its
        first ``|B_b|`` entries) if src lies in block ``a``, then the same
        row of t's B block (``|B_c|`` entries) if src lies in block ``b``.
        The blocks are built and multiplied a few dozen cube nodes at a
        time, so they stay small beside the received lanes.
        """
        lens, size, in_w = self.lens, self.size, self.in_w
        g3 = self.ta.size
        t = received.dst
        sb = self.block[received.src]
        into = t < g3
        tt = np.where(into, t, 0)
        a_cnt = np.where(into & (sb == self.ta[tt]), lens[self.tb[tt]], 0)
        b_cnt = np.where(into & (sb == self.tb[tt]), lens[self.tc[tt]], 0)
        row = (received.src - self.starts[sb]) * size
        lane0 = received.offsets[:-1]
        whole = (np.diff(received.offsets) >= a_cnt + b_cnt).all()
        if whole and (received.widths == in_w).all():
            partial = np.empty((g3, size, size), dtype=_I64)
            step = max(1, _CHUNK // (size * size))
            for lo in range(0, g3, step):
                hi = min(lo + step, g3)
                mine = np.flatnonzero(into & (t >= lo) & (t < hi))
                at = row[mine] + (t[mine] - lo) * size * size
                blocks = np.zeros((2, hi - lo, size, size), dtype=_I64)
                for flat, cnt, first in (
                    (blocks[0].reshape(-1), a_cnt[mine], lane0[mine]),
                    (blocks[1].reshape(-1), b_cnt[mine], lane0[mine] + a_cnt[mine]),
                ):
                    fields = received.values[segment_ranges(first, cnt)]
                    flat[segment_ranges(at, cnt)] = fields.view(_I64)
                partial[lo:hi] = self.semiring.local_matmul(blocks[0], blocks[1])
            return partial, failure
        # Through payload ints, in the twin's node order, up to the first
        # read that overruns its flow.
        blocks = np.zeros((2, g3, size, size), dtype=_I64)
        a_flat, b_flat = blocks.reshape(2, -1)
        for f, value in _twin_reads(received, failure, (a_cnt > 0) | (b_cnt > 0)):
            nbits, pos = int(received.nbits[f]), 0
            at = int(row[f] + t[f] * size * size)
            for flat, cnt in ((a_flat, int(a_cnt[f])), (b_flat, int(b_cnt[f]))):
                if cnt:
                    try:
                        chunk = _take_bits(value, nbits, pos, cnt * in_w)
                    except EncodingError as exc:
                        partial = self.semiring.local_matmul(blocks[0], blocks[1])
                        return partial, (int(t[f]), exc)
                    flat[at : at + cnt] = self._decode(chunk, cnt, in_w)
                    pos += cnt * in_w
        return self.semiring.local_matmul(blocks[0], blocks[1]), failure

    def checked(self, partial: np.ndarray, failure) -> np.ndarray:
        """``partial``, once no cube node failed: each encodes its partial
        rows right after its multiply, so an unfit row of a node before
        ``failure``'s raises first, then ``failure``'s read error."""
        stop = partial.shape[0] if failure is None else failure[0]
        bad = _unfit(partial[:stop], self.acc_w).any(axis=(1, 2))
        if bad.any():
            node = int(np.argmax(bad))
            lens = self.lens
            rows = partial[node, : lens[self.ta[node]], : lens[self.tc[node]]]
            first = np.flatnonzero(_unfit(rows, self.acc_w).any(axis=1))[0]
            self._encode(rows[first], self.acc_w)
        if failure is not None:
            raise failure[1]
        return partial

    def partial_rows(self, partial: np.ndarray) -> BulkBatch:
        """Phase 3: cube node ``(a, b, c)`` sends each row owner of block
        ``a`` its partial row, ``|B_c|`` entries."""
        cols = np.arange(self.size)
        row_ok = cols[None, :] < self.lens[self.ta][:, None]
        t, row = np.nonzero(row_ok)
        size = self.size
        first = (t * size + row) * size
        dst = self.starts[self.ta[t]] + row
        return self._flows(
            partial.reshape(-1), t, dst, first, self.lens[self.tc[t]], self.acc_w
        )

    def row_sums(self, received: BulkBatch, failure) -> np.ndarray:
        """The ``(n, n)`` product: each row owner sums the partial rows it
        receives (RING's combine is +, so arrival order does not matter);
        raises the route's ``failure`` unless a lower node's read does.
        """
        n, acc_w = self.n, self.acc_w
        out = np.zeros((n, n), dtype=_I64)
        c = received.src % self.g
        cnt = self.lens[c]
        whole = (np.diff(received.offsets) >= cnt).all()
        if whole and (received.widths == acc_w).all():
            lane0 = received.offsets[:-1]
            for part, fields in _field_chunks(received.values, lane0, cnt):
                at = segment_ranges(self.starts[c[part]], cnt[part])
                at += np.repeat(received.dst[part] * n, cnt[part])
                np.add.at(out.reshape(-1), at, fields.view(_I64))
        else:
            for f, value in _twin_reads(received, failure):
                count = int(cnt[f])
                chunk = _take_bits(value, int(received.nbits[f]), 0, count * acc_w)
                start = int(self.starts[c[f]])
                out[received.dst[f], start : start + count] += self._decode(
                    chunk, count, acc_w
                )
        if failure is not None:
            raise failure[1]
        return out

    def _flows(self, source, src, dst, first, counts, width) -> BulkBatch:
        """Flows ``src -> dst`` of ``width``-bit fields gathered from
        ``source`` (nonnegative entries): flow ``i`` carries the
        ``counts[i]`` entries from ``first[i]`` (per segment, when these
        are rows).  Flows to their own source go last, so the route hands
        the rest to the channel without a copy."""
        own = src == dst
        if own.any():
            order = np.argsort(own, kind="stable")
            src, dst = src[order], dst[order]
            first, counts = first[order], counts[order]
        values = _lane_column(int(counts.sum()))
        at = 0
        for _part, fields in _field_chunks(source, first.ravel(), counts.ravel()):
            values[at : at + fields.size] = fields
            at += fields.size
        lanes, widths, k = _field_lanes(values, width)
        per_flow = counts.reshape(src.size, -1).sum(axis=1) * k
        offsets = np.zeros(src.size + 1, dtype=_I64)
        np.cumsum(per_flow, out=offsets[1:])
        return BulkBatch(src, dst, lanes, widths, offsets)

    def _encode(self, entries: np.ndarray, width: int) -> None:
        self.semiring.encode_entries(entries, width)

    def _decode(self, chunk: int, count: int, width: int) -> np.ndarray:
        bits = BitString(chunk, count * width)
        return self.semiring.decode_entries(bits, count, width)


def matmul_array(ctx) -> Generator[None, None, list[np.ndarray]]:
    """Columnar cube-partitioned matrix multiplication (see :class:`_Cube`).

    Mirrors :func:`repro.algorithms.matmul.distributed_matmul` with the
    RING semiring: node ``v``'s input is ``(A[v], B[v])`` and its output
    ``C[v]``.  ``ctx.auxes[v]`` carries ``{"max_entry", "scheme"}``.
    """
    from .matmul import RING

    aux = dict(ctx.auxes[0])
    cube = _Cube(ctx.n, RING, int(aux["max_entry"]))
    scheme = str(aux.get("scheme", "lenzen"))
    inputs = array_route(ctx, cube.inputs(ctx.inputs), scheme=scheme)
    # The received lanes are freed as soon as the products are built.
    partial = cube.checked(*cube.products(*(yield from inputs)))
    sums = yield from array_route(ctx, cube.partial_rows(partial), scheme=scheme)
    return list(cube.row_sums(*sums))


def _key_flows(node: np.ndarray, dst: np.ndarray, keys: np.ndarray, width: int):
    """The flows of ``keys`` (grouped by node, ascending) to ``dst``:
    one flow per run of equal ``(node, dst)``, laid out as the twin's
    ``_pack_keys`` — a 32-bit count lane, then one lane per key."""
    run = np.ones(keys.size, dtype=bool)
    run[1:] = (node[1:] != node[:-1]) | (dst[1:] != dst[:-1])
    first = np.flatnonzero(run)
    counts = np.diff(np.append(first, keys.size))
    heads = first + np.arange(first.size)
    values = np.empty(keys.size + first.size, dtype=_U64)
    widths = np.full(values.size, width, dtype=_U8)
    values[heads] = counts
    widths[heads] = 32
    values[np.arange(keys.size) + np.cumsum(run)] = keys
    return BulkBatch(
        node[first], dst[first], values, widths, np.append(heads, values.size)
    )


def _received_keys(flows: BulkBatch, failure, width: int):
    """``(keys, dst)`` of every key in the received ``flows``, read like
    the twin's ``_unpack_keys``: a 32-bit count, then that many keys;
    raises the route's ``failure`` unless a lower node's read does."""
    from ..clique.sorting import _unpack_keys

    heads = flows.offsets[:-1]
    counts = flows.values[heads].astype(_I64)
    head = np.zeros(flows.widths.size, dtype=bool)
    head[heads] = True
    whole = (np.diff(flows.offsets) > counts).all()
    if whole and (flows.widths == np.where(head, 32, width)).all():
        keys = flows.values[segment_ranges(heads + 1, counts)]
        dst = np.repeat(flows.dst, counts)
    else:
        # Through payload ints, in the twin's node order.
        keys, dst = [], []
        for f, value in _twin_reads(flows, failure):
            got = _unpack_keys(BitString(value, int(flows.nbits[f])), width)
            keys += got
            dst += [int(flows.dst[f])] * len(got)
        keys, dst = np.asarray(keys, dtype=_U64), np.asarray(dst, dtype=_I64)
    if failure is not None:
        raise failure[1]
    return keys, dst


def sorting_array(ctx) -> Generator[None, None, list[list[int]]]:
    """Columnar PSRS sorting (twin of ``distributed_sort``).

    Node ``v``'s input is its key list; ``ctx.auxes[v]`` carries
    ``{"key_width", "scheme"}``.  Keys travel one per ``uint64`` lane,
    so ``key_width`` is at most 64 here.
    """
    from ..clique.bits import decode_uint_array, encode_uint_array

    n = ctx.n
    aux = dict(ctx.auxes[0])
    key_width = int(aux["key_width"])
    scheme = str(aux.get("scheme", "lenzen"))
    if key_width > 64:
        raise CliqueError(
            f"columnar sorting carries keys in uint64 lanes, got "
            f"key_width={key_width}; run this configuration on another engine"
        )
    locals_: list[list[int]] = []
    for me in range(n):
        keys = [int(k) for k in ctx.inputs[me]]
        for k in keys:
            if k < 0 or k.bit_length() > key_width:
                raise ProtocolViolation(
                    f"key {k} does not fit in {key_width} bits"
                )
        locals_.append(sorted(keys))
    if n == 1:
        return [locals_[0]]

    # Step 2: publish n evenly spaced samples per node.
    pad = (1 << key_width) - 1
    payloads = []
    for local in locals_:
        if local:
            step = max(1, len(local) // n)
            samples = [local[min(i * step, len(local) - 1)] for i in range(n)]
        else:
            samples = [pad] * n
        payloads.append(encode_uint_array(samples, key_width).value)
    sample_rows = yield from array_all_broadcast(
        ctx, payloads, n * key_width
    )

    # Step 3: route keys to their splitter bucket.  Every node that
    # received the same sample rows (all of them, on a fault-free run)
    # derives the same splitters: compute them once per distinct rows.
    keys = np.asarray([k for local in locals_ for k in local], dtype=_U64)
    node = np.repeat(ctx.ids, [len(local) for local in locals_])
    bucket = np.zeros(keys.size, dtype=_I64)
    by_rows: dict[tuple[int, ...], list[int]] = {}
    for me in range(n):
        by_rows.setdefault(tuple(sample_rows[me]), []).append(me)
    for row, members in by_rows.items():
        samples = []
        for value in row:
            samples += decode_uint_array(
                BitString(value, n * key_width), n, key_width
            )
        samples.sort()
        splitters = np.asarray(
            [samples[(j + 1) * n - 1] for j in range(n - 1)], dtype=_U64
        )
        mine = np.isin(node, members)
        bucket[mine] = np.searchsorted(splitters, keys[mine], side="left")
    received = yield from array_route(
        ctx, _key_flows(node, bucket, keys, key_width), scheme=scheme
    )
    keys, node = _received_keys(*received, key_width)
    order = np.lexsort((keys, node))
    keys, node = keys[order], node[order]

    # Step 4: all-gather bucket sizes and re-route to rank owners.
    sizes = np.bincount(node, minlength=n)
    size_rows = yield from array_all_gather_uint(ctx, sizes.tolist(), 32)
    rows = np.asarray(size_rows, dtype=_I64)
    diag = ctx.ids
    my_offset = rows.cumsum(axis=1)[diag, diag] - rows[diag, diag]
    quota = -(-rows.sum(axis=1) // n)
    rank = my_offset[node] + np.arange(keys.size) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    q = quota[node]
    owner = np.where(q > 0, np.minimum(rank // np.maximum(q, 1), n - 1), 0)
    received2 = yield from array_route(
        ctx, _key_flows(node, owner, keys, key_width), scheme=scheme
    )
    keys, node = _received_keys(*received2, key_width)
    order = np.lexsort((keys, node))
    bounds = np.cumsum(np.bincount(node, minlength=n))[:-1]
    return [part.tolist() for part in np.split(keys[order], bounds)]
