"""Collective communication primitives.

These are generator subroutines invoked from node programs via
``yield from`` — each internal ``yield`` is one synchronous round, and
*all* nodes must invoke the same collective in the same round (the usual
MPI collective-call convention, cf. mpi4py's ``bcast``/``allgather``).

All primitives are bit-exact: payload widths are explicit, and messages
never exceed the node's per-link budget ``node.bandwidth``.
"""

from __future__ import annotations

import math
from typing import Generator

from .bits import BitString, concat_uints, fold_inbox
from .errors import ProtocolViolation
from .node import Node

__all__ = [
    "idle",
    "exchange",
    "all_gather_uint",
    "all_broadcast",
    "all_broadcast_concat",
    "broadcast_from",
    "all_gather_bits",
    "agree_uint_max",
    "chunks_needed",
]


def chunks_needed(bits: int, chunk: int) -> int:
    """Rounds needed to push ``bits`` over a link carrying ``chunk``/round."""
    if chunk < 1:
        raise ProtocolViolation(f"chunk width must be >= 1, got {chunk}")
    return max(0, math.ceil(bits / chunk))


def idle(rounds: int) -> Generator[None, None, None]:
    """Spend ``rounds`` rounds sending nothing (synchronisation filler)."""
    for _ in range(rounds):
        yield


def exchange(
    node: Node, payloads: dict[int, BitString]
) -> Generator[None, None, dict[int, BitString]]:
    """One round: send ``payloads[dst]`` to each ``dst``; return the inbox.

    Every payload must fit in a single round's budget.
    """
    for dst, payload in payloads.items():
        node.send(dst, payload)
    yield
    return dict(node.inbox)


def all_gather_uint(
    node: Node, value: int, width: int
) -> Generator[None, None, list[int]]:
    """Every node contributes a ``width``-bit uint; all learn all values.

    Takes ``ceil(width / B)`` rounds (the value is chunked if needed).
    Returns the list indexed by node id (own value included).
    """
    return (yield from _broadcast_ints(node, BitString(value, width)))


def all_broadcast(
    node: Node, payload: BitString
) -> Generator[None, None, list[BitString]]:
    """Every node broadcasts a same-length payload to everyone.

    All nodes must pass payloads of identical length ``k`` (a protocol
    requirement, unchecked across nodes but validated by reassembly).
    Takes ``ceil(k / B)`` rounds.  Returns the payload list indexed by
    node id (own payload included).
    """
    k = len(payload)
    values = yield from _broadcast_ints(node, payload)
    return [BitString(value, k) for value in values]


def all_broadcast_concat(
    node: Node, payload: BitString
) -> Generator[None, None, BitString]:
    """:func:`all_broadcast` returning the payloads concatenated in node-id
    order (``n * k`` bits), for decoders that read every payload at once.

    Same rounds, messages and errors as :func:`all_broadcast`; builds no
    per-sender :class:`BitString`.
    """
    values = yield from _broadcast_ints(node, payload)
    return concat_uints(values, len(payload))


def _broadcast_ints(
    node: Node, payload: BitString
) -> Generator[None, None, list[int]]:
    """:func:`all_broadcast` returning each sender's payload as an int.

    Each arriving chunk is folded straight into its sender's int (the
    value ``BitString.concat`` of that sender's chunks would have), so
    reassembly builds no per-chunk lists.
    """
    b = node.bandwidth
    k = len(payload)
    rounds = chunks_needed(k, b)
    chunks = payload.split(b)
    me = node.id
    values = [0] * node.n
    lengths = [0] * node.n
    for r in range(rounds):
        chunk = chunks[r]
        node.send_to_all(chunk)
        yield
        fold_inbox(values, lengths, node.inbox)
        values[me] = (values[me] << len(chunk)) | chunk.value
        lengths[me] += len(chunk)
    for v, got in enumerate(lengths):
        if got != k:
            raise ProtocolViolation(
                f"all_broadcast: node {node.id} reassembled {got} bits "
                f"from node {v}, expected {k}"
            )
    return values


def broadcast_from(
    node: Node, root: int, payload: BitString | None, length: int
) -> Generator[None, None, BitString]:
    """Root broadcasts ``length`` bits to everyone.

    Uses the doubling trick: the root scatters distinct chunks across the
    other nodes, then everyone re-broadcasts their chunk — total
    ``ceil(length / (B * (n-1))) + ceil(ceil(length/(n-1)) / B)`` rounds,
    i.e. ``O(length / (B n) + 1)`` instead of direct ``length / B``.
    ``length`` must be common knowledge; non-root nodes pass
    ``payload=None``.
    """
    n, b = node.n, node.bandwidth
    if n == 1:
        if node.id == root:
            assert payload is not None and len(payload) == length
            return payload
        raise ProtocolViolation("broadcast_from with n=1 needs root == self")
    if node.id == root:
        if payload is None or len(payload) != length:
            raise ProtocolViolation(
                f"root must supply a {length}-bit payload"
            )

    # Segment layout: node j (j != root, in id order) owns segment index
    # rank(j) of size ceil(length / (n-1)) (last one may be short).
    others = [v for v in range(n) if v != root]
    seg = max(1, math.ceil(length / (n - 1)))
    bounds = [(min(i * seg, length), min((i + 1) * seg, length)) for i in range(n - 1)]

    # Phase 1: root scatters segment i to others[i], chunked.
    max_seg = max((hi - lo for lo, hi in bounds), default=0)
    p1_rounds = chunks_needed(max_seg, b)
    if node.id == root:
        segments = payload.split(seg)
        segments += [BitString.empty()] * (n - 1 - len(segments))
        scatter = [segment.split(b) for segment in segments]
    my_segment: list[BitString] = []
    for r in range(p1_rounds):
        if node.id == root:
            for i, dst in enumerate(others):
                if r < len(scatter[i]):
                    node.send(dst, scatter[i][r])
        yield
        if node.id != root:
            msg = node.recv(root)
            if msg is not None:
                my_segment.append(msg)

    # Phase 2: everyone (except root) broadcasts its segment; lengths are
    # derivable from the common layout, so all_broadcast-style chunking
    # works per segment.
    p2_rounds = chunks_needed(max_seg, b)
    segment_bits = (
        BitString.concat(my_segment) if node.id != root else BitString.empty()
    )
    my_chunks = segment_bits.split(b)
    collected: dict[int, list[BitString]] = {v: [] for v in others}
    for r in range(p2_rounds):
        if node.id != root and r < len(my_chunks):
            node.send_to_all(my_chunks[r])
        yield
        for src, msg in node.inbox.items():
            if src != root:
                collected[src].append(msg)
        if node.id != root and r < len(my_chunks):
            collected[node.id].append(my_chunks[r])

    if node.id == root:
        return payload  # root already has it
    parts: list[BitString] = []
    for i, owner in enumerate(others):
        lo, hi = bounds[i]
        if owner == node.id:
            parts.append(segment_bits)
        else:
            got = BitString.concat(collected[owner])
            if len(got) != hi - lo:
                raise ProtocolViolation(
                    f"broadcast_from: segment {i} from {owner} has "
                    f"{len(got)} bits, expected {hi - lo}"
                )
            parts.append(got)
    return BitString.concat(parts)


def all_gather_bits(
    node: Node, payload: BitString, length: int
) -> Generator[None, None, list[BitString]]:
    """Alias of :func:`all_broadcast` with an explicit common length check."""
    if len(payload) != length:
        raise ProtocolViolation(
            f"all_gather_bits: payload has {len(payload)} bits, "
            f"declared {length}"
        )
    return (yield from all_broadcast(node, payload))


def agree_uint_max(
    node: Node, value: int, width: int
) -> Generator[None, None, int]:
    """All nodes learn the maximum of their ``width``-bit values."""
    values = yield from all_gather_uint(node, value, width)
    return max(values)
