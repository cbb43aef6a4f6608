"""Message routing primitives.

The paper's algorithms (e.g. Theorem 9) invoke the routing protocol of
Lenzen [43] as a black box: *any* instance in which each node sends and
receives at most ``n * r`` messages of ``O(log n)`` bits can be delivered
in ``O(r)`` rounds deterministically.  We provide three interchangeable
schemes behind a single collective :func:`route`:

``direct``
    Each flow is chunked over its own link.  Fully self-contained and
    honest, but a skewed instance (one heavy pair) costs ``load/B``
    rounds instead of ``load/(nB)``.

``relay``
    An executable deterministic store-and-forward protocol: chunk ``i`` of
    the flow ``s -> d`` is spread to intermediary ``(s + d + i) mod n`` and
    forwarded, with in-band ``[tag | peer]`` headers and strict one-message
    -per-link-per-round arbitration.  Requires bandwidth at least
    ``log n + 2`` bits (i.e. ``bandwidth_multiplier >= 2``), per the
    paper's remark that constant bandwidth factors can be moved into the
    running time.  Achieves ``O(max_load / (n B) + 1)`` rounds on the
    balanced instances our algorithms generate; always correct.

``lenzen``
    The cost-model scheme (default): payloads are delivered through a
    privileged engine channel, and the collective *charges* the number of
    rounds Lenzen's routing theorem guarantees —
    ``ceil(max_node_load_bits / (B * (n-1)))`` — by idling the clique for
    exactly that many rounds.  This substitutes the internals of Lenzen's
    protocol (sorting-based load balancing) with its proven round bound;
    see DESIGN.md for the substitution rationale.

All schemes start with a *length exchange* (every ordered pair learns the
flow length on that pair) so the receive side can reassemble
deterministically, followed by a one-value agreement on the global round
budget where needed.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import Generator

from .bits import BitString, fold_inbox, uint_width
from .errors import ProtocolViolation
from .node import Node
from .primitives import agree_uint_max, chunks_needed

__all__ = ["route", "ROUTE_SCHEMES", "relay_min_bandwidth"]

ROUTE_SCHEMES = ("direct", "relay", "lenzen")

#: Width of the per-pair flow-length header (bits).  Flows are at most
#: a whole graph per pair in our algorithms; 32 bits is ample.
_LEN_WIDTH = 32

#: Data rounds between status rounds in the relay scheme.
_STATUS_PERIOD = 3


def relay_min_bandwidth(n: int) -> int:
    """Minimum per-link budget for the relay scheme: header + 1 payload bit."""
    return uint_width(max(1, n - 1)) + 2


def route(
    node: Node,
    flows: dict[int, BitString],
    scheme: str = "lenzen",
) -> Generator[None, None, dict[int, BitString]]:
    """Collectively deliver arbitrary-size flows between all node pairs.

    ``flows`` maps destination id to payload bits (``node.id`` itself is
    allowed and short-circuited locally).  Returns ``{src: payload}`` for
    every nonempty inbound flow.  All nodes must call this collective in
    the same round with the same ``scheme``.
    """
    if scheme not in ROUTE_SCHEMES:
        raise ProtocolViolation(f"unknown routing scheme {scheme!r}")
    n = node.n
    flows = {d: p for d, p in flows.items() if len(p) > 0}
    self_flow = flows.pop(node.id, None)
    for d in flows:
        if not 0 <= d < n:
            raise ProtocolViolation(f"flow destination {d} out of range")

    if n == 1:
        result0: dict[int, BitString] = {}
        if self_flow is not None:
            result0[node.id] = self_flow
        return result0

    # ---- Phase 1: sparse length exchange.  Headers are sent only on
    # links that will carry a flow; a silent header phase on a link means
    # "no flow", so sparse instances do not pay Theta(n) header bits per
    # node (which would otherwise swamp sub-linear load profiles).
    b = node.bandwidth
    # Every header is ``hdr_rounds`` chunks long; flows of equal length
    # share one split.  Arriving chunks fold straight into ints.
    hdr_rounds = chunks_needed(_LEN_WIDTH, b)
    split_by_length: dict[int, list[BitString]] = {}
    headers: dict[int, list[BitString]] = {}
    for d, p in flows.items():
        length = len(p)
        hdr_chunks = split_by_length.get(length)
        if hdr_chunks is None:
            hdr_chunks = BitString(length, _LEN_WIDTH).split(b)
            split_by_length[length] = hdr_chunks
        headers[d] = hdr_chunks
    in_values: defaultdict[int, int] = defaultdict(int)
    in_widths: defaultdict[int, int] = defaultdict(int)
    for r in range(hdr_rounds):
        for d, hdr_chunks in headers.items():
            node.send(d, hdr_chunks[r])
        yield
        fold_inbox(in_values, in_widths, node.inbox)
    in_lengths = dict(in_values)

    # Record the payload load profile — the quantity the routing
    # theorems bound (headers and agreement bits excluded).
    node.count("route_payload_out_bits", sum(len(p) for p in flows.values()))
    node.count("route_payload_in_bits", sum(in_lengths.values()))

    if scheme == "direct":
        result = yield from _route_direct(node, flows, in_lengths)
    elif scheme == "lenzen":
        result = yield from _route_lenzen(node, flows, in_lengths)
    else:
        result = yield from _route_relay(node, flows, in_lengths)

    if self_flow is not None:
        result[node.id] = self_flow
    return result


# ---------------------------------------------------------------------------
# direct scheme


def _route_direct(
    node: Node,
    flows: dict[int, BitString],
    in_lengths: dict[int, int],
) -> Generator[None, None, dict[int, BitString]]:
    b = node.bandwidth
    my_rounds = 0
    for length in list(in_lengths.values()) + [len(p) for p in flows.values()]:
        my_rounds = max(my_rounds, chunks_needed(length, b))
    total_rounds = yield from agree_uint_max(node, my_rounds, _LEN_WIDTH)

    incoming: dict[int, list[BitString]] = {
        s: [] for s, length in in_lengths.items() if length > 0
    }
    chunked = {d: payload.split(b) for d, payload in flows.items()}
    for r in range(total_rounds):
        for d, chunks in chunked.items():
            if r < len(chunks):
                node.send(d, chunks[r])
        yield
        for s, msg in node.inbox.items():
            if s not in incoming:
                raise _unannounced_chunk(node.id, s)
            incoming[s].append(msg)

    return _finish_incoming(node, incoming, in_lengths)


def _finish_incoming(
    node: Node, incoming: dict[int, list[BitString]], in_lengths: dict[int, int]
) -> dict[int, BitString]:
    result: dict[int, BitString] = {}
    for s, parts in incoming.items():
        got = BitString.concat(parts)
        expected = in_lengths[s]
        if len(got) < expected:
            raise ProtocolViolation(
                f"route: node {node.id} received {len(got)} of "
                f"{expected} bits from node {s}"
            )
        result[s] = got[:expected]
    return result


# ---------------------------------------------------------------------------
# lenzen cost-model scheme


def _route_lenzen(
    node: Node,
    flows: dict[int, BitString],
    in_lengths: dict[int, int],
) -> Generator[None, None, dict[int, BitString]]:
    b = node.bandwidth
    n = node.n
    my_out = sum(len(p) for p in flows.values())
    my_in = sum(in_lengths.values())
    my_load = max(my_out, my_in)
    max_load = yield from agree_uint_max(node, my_load, _LEN_WIDTH)

    # Lenzen's theorem: a routing instance where every node sends and
    # receives at most n messages of B bits completes in O(1) rounds;
    # by batching, max_load bits per node cost ceil(max_load / (B(n-1)))
    # rounds up to a constant.  We charge exactly that many rounds.
    charged = max(0, math.ceil(max_load / (b * (n - 1))))
    if charged == 0:
        return {}

    for d, payload in flows.items():
        node._bulk_send(d, payload)
    received: dict[int, BitString] = {}
    for r in range(charged):
        yield
        if r == 0:
            for s, msg in node.inbox.items():
                received[s] = msg
    for s, expected in in_lengths.items():
        if expected > 0 and len(received.get(s, BitString.empty())) != expected:
            raise ProtocolViolation(
                f"route(lenzen): node {node.id} expected {expected} bits "
                f"from {s}, got {len(received.get(s, BitString.empty()))}"
            )
    return {s: p for s, p in received.items() if len(p) > 0}


# ---------------------------------------------------------------------------
# relay scheme (executable store-and-forward)


def _route_relay(
    node: Node,
    flows: dict[int, BitString],
    in_lengths: dict[int, int],
) -> Generator[None, None, dict[int, BitString]]:
    n = node.n
    if n == 2:
        # With two nodes there are no intermediaries; relaying degenerates
        # to direct delivery.
        return (yield from _route_direct(node, flows, in_lengths))
    b = node.bandwidth
    node_w = uint_width(max(1, n - 1))
    payload_w = b - 1 - node_w  # [tag:1][peer:node_w][payload]
    if payload_w < 1:
        raise ProtocolViolation(
            f"relay routing needs bandwidth >= {relay_min_bandwidth(n)} bits "
            f"(got {b}); run with bandwidth_multiplier >= 2"
        )
    msg_w = 1 + node_w + payload_w
    me = node.id

    # Sender state: per-relay FIFO of (dst, chunk) spread messages.
    spread: dict[int, deque[tuple[int, BitString]]] = {
        w: deque() for w in range(n) if w != me
    }
    # Relay state: per-destination FIFO of (src, chunk) forward messages.
    forward: dict[int, deque[tuple[int, BitString]]] = {
        d: deque() for d in range(n) if d != me
    }
    # Receiver state: per-src indexed chunk store + counters per relay.
    expect_chunks = {
        s: math.ceil(length / payload_w) for s, length in in_lengths.items()
    }
    store: dict[int, dict[int, BitString]] = {
        s: {} for s, c in expect_chunks.items() if c > 0
    }
    seen_from_relay: dict[tuple[int, int], int] = {}
    remaining = sum(c for c in expect_chunks.values())

    # Chunk i of the flow me -> d is assigned relay rotation[(pos(d)+i) mod
    # (n-1)] where the rotation enumerates all nodes except the sender and
    # starts at the destination itself (so the direct link carries an even
    # 1/(n-1) share like every other link; see _relay_of/_chunk_index).
    for d, payload in flows.items():
        chunks = payload.split(payload_w)
        tail = chunks[-1] if chunks else None
        if tail is not None and len(tail) < payload_w:  # pad the tail chunk
            chunks[-1] = BitString(
                tail.value << (payload_w - len(tail)), payload_w
            )
        for i, chunk in enumerate(chunks):
            w = _relay_of(me, d, i, n)
            spread[w].append((d, chunk))

    def satisfied() -> bool:
        return (
            remaining == 0
            and all(not q for q in spread.values())
            and all(not q for q in forward.values())
        )

    data_round = 0
    while True:
        if data_round % (_STATUS_PERIOD + 1) == _STATUS_PERIOD:
            # Status round: everyone reports completion; unanimous -> done.
            node.send_to_all(BitString(1 if satisfied() else 0, 1))
            yield
            done = satisfied() and all(
                msg.value == 1 for msg in node.inbox.values()
            )
            data_round += 1
            if done:
                break
            continue

        # Data round: per link, forward traffic has priority over spread.
        # Messages are [tag:1][peer:node_w][payload:payload_w], assembled
        # with one shift instead of two BitString concatenations.
        for peer in range(n):
            if peer == me:
                continue
            if forward[peer]:
                src, chunk = forward[peer].popleft()
                msg = BitString(
                    (((1 << node_w) | src) << payload_w) | chunk.value, msg_w
                )
                node.send(peer, msg)
            elif spread[peer]:
                dst, chunk = spread[peer].popleft()
                msg = BitString((dst << payload_w) | chunk.value, msg_w)
                node.send(peer, msg)
        yield
        data_round += 1
        for sender, msg in node.inbox.items():
            if len(msg) != msg_w:
                raise _relay_bad_width(me, sender, len(msg), msg_w)
            raw = msg.value
            tag = raw >> (msg_w - 1)
            peer_id = (raw >> payload_w) & ((1 << node_w) - 1)
            chunk = BitString(raw & ((1 << payload_w) - 1), payload_w)
            if tag == 0:
                # We are the relay; ``peer_id`` is the final destination.
                if peer_id == me:
                    # Chunk whose assigned relay is the destination itself:
                    # it arrives directly, with ourselves as the "relay".
                    _accept_chunk(
                        me, n, sender, me, chunk, store,
                        seen_from_relay, expect_chunks,
                    )
                    remaining -= 1
                elif peer_id >= n:
                    raise _relay_bad_peer(me, peer_id, sender)
                else:
                    forward[peer_id].append((sender, chunk))
            else:
                # We are the destination; ``peer_id`` is the original src,
                # ``sender`` is the relay it came through.
                _accept_chunk(
                    me, n, peer_id, sender, chunk, store,
                    seen_from_relay, expect_chunks,
                )
                remaining -= 1

    # Reassemble.
    result: dict[int, BitString] = {}
    for s, chunks in store.items():
        m = expect_chunks[s]
        for i in range(m):
            if i not in chunks:
                raise ProtocolViolation(
                    f"route(relay): node {me} missing chunk {i} of flow "
                    f"from {s}"
                )
        merged = BitString.concat([chunks[i] for i in range(m)])
        result[s] = merged[: in_lengths[s]]
    return result


def _relay_of(s: int, d: int, i: int, n: int) -> int:
    """Relay assigned to chunk ``i`` of the flow ``s -> d``.

    The rotation enumerates the ``n - 1`` nodes other than ``s`` in cyclic
    id order starting at ``d``; chunk ``i`` uses position ``i mod (n-1)``.
    Every outgoing link of ``s`` therefore carries an even share of the
    flow (the direct link ``s -> d`` included, as "relay" ``d`` itself).
    """
    q = ((d - s - 1) % n + i) % (n - 1)
    return (s + 1 + q) % n


def _unannounced_chunk(me: int, sender: int) -> ProtocolViolation:
    """The error for a direct-scheme chunk from a node with no flow to ``me``."""
    return ProtocolViolation(
        f"route: node {me} got a chunk from {sender}, which announced no flow to it"
    )


def _relay_bad_width(me: int, sender: int, width: int, msg_w: int) -> ProtocolViolation:
    """The error for a relay data-round message that is not a frame."""
    return ProtocolViolation(
        f"route(relay): node {me} got a {width}-bit message from {sender}; "
        f"relay frames are {msg_w} bits"
    )


def _relay_bad_peer(me: int, peer: int, sender: int) -> ProtocolViolation:
    """The error for a spread header naming a destination outside the
    clique (the ``node_w``-bit peer field can encode ids up to
    ``2**node_w - 1 >= n``)."""
    return ProtocolViolation(
        f"route(relay): node {me} got a chunk from {sender} for "
        f"nonexistent node {peer}"
    )


def _relay_position(s: int, d: int, w: int, n: int) -> int:
    """Inverse of :func:`_relay_of`: the rotation position of relay ``w``."""
    return ((w - s - 1) % n - (d - s - 1) % n) % (n - 1)


def _accept_chunk(
    me: int,
    n: int,
    src: int,
    relay: int,
    chunk: BitString,
    store: dict[int, dict[int, BitString]],
    seen_from_relay: dict[tuple[int, int], int],
    expect_chunks: dict[int, int],
) -> None:
    """Place an arriving chunk of flow ``src -> me`` at its global index.

    Relays are FIFO per destination, so the ``k``-th chunk arriving via
    ``relay`` has index ``pos + k * (n-1)`` where ``pos`` is the relay's
    rotation position for this flow (see :func:`_relay_of`).
    """
    if src not in store:
        raise ProtocolViolation(
            f"route(relay): node {me} got unexpected chunk from {src}"
        )
    k = seen_from_relay.get((src, relay), 0)
    seen_from_relay[(src, relay)] = k + 1
    index = _relay_position(src, me, relay, n) + k * (n - 1)
    if index >= expect_chunks[src]:
        raise ProtocolViolation(
            f"route(relay): node {me} got chunk index {index} beyond "
            f"expected {expect_chunks[src]} from {src}"
        )
    if index in store[src]:
        raise ProtocolViolation(
            f"route(relay): node {me} got duplicate chunk {index} from {src}"
        )
    store[src][index] = chunk
