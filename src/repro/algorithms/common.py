"""Shared helpers for the distributed algorithms.

Group partitions, label tuples (the Dolev–Lenzen–Peled label scheme used
by Theorems 9 and the subgraph algorithms), incidence-row encodings, and
the standard decide-and-agree epilogue.
"""

from __future__ import annotations

import math
from typing import Generator, Sequence

import numpy as np

from ..clique.bits import (
    BitReader,
    BitString,
    BitWriter,
    uint_width,
)
from ..clique.errors import CliqueError
from ..clique.node import Node
from ..clique.primitives import all_broadcast

__all__ = [
    "group_partition",
    "group_of",
    "node_label",
    "label_union",
    "encode_bool_row",
    "decode_bool_row",
    "agree_on_witness",
    "int_ceil_root",
]


def int_ceil_root(n: int, k: int) -> int:
    """Largest integer g with g**k <= n (i.e. floor(n^(1/k))), computed
    exactly (floating-point roots of large ints are unreliable)."""
    if k < 1:
        raise CliqueError(f"int_ceil_root needs k >= 1, got k={k}")
    if n < 1:
        return 0
    g = max(1, int(round(n ** (1.0 / k))))
    while g**k > n:
        g -= 1
    while (g + 1) ** k <= n:
        g += 1
    return g


def group_partition(n: int, g: int) -> list[list[int]]:
    """Partition ``0..n-1`` into ``g`` contiguous groups of size
    ``ceil(n/g)`` (the last may be smaller)."""
    size = math.ceil(n / g)
    return [list(range(i * size, min((i + 1) * size, n))) for i in range(g)]


def group_of(v: int, n: int, g: int) -> int:
    """Index of the group containing node ``v`` under
    :func:`group_partition`."""
    size = math.ceil(n / g)
    return min(v // size, g - 1)


def node_label(v: int, g: int, k: int) -> tuple[int, ...]:
    """The label ``l(v) in [g]^k`` of node ``v``: digits of ``v mod g^k``
    in base ``g``.  Every possible label is assigned to some node as long
    as ``g^k <= n`` (paper Section 7.1 step 2)."""
    x = v % (g**k)
    digits = []
    for _ in range(k):
        digits.append(x % g)
        x //= g
    return tuple(digits)


def label_union(label: Sequence[int], groups: list[list[int]]) -> list[int]:
    """``S_v``: the (sorted, deduplicated) union of the labelled groups."""
    seen: set[int] = set()
    for j in label:
        seen.update(groups[j])
    return sorted(seen)


# ---------------------------------------------------------------------------
# row encodings


def encode_bool_row(row: np.ndarray) -> BitString:
    """Pack a boolean vector into a BitString (vectorised hot path —
    profiling showed the per-bit loop dominating subgraph detection)."""
    arr = np.asarray(row, dtype=bool)
    n = arr.size
    if n == 0:
        return BitString.empty()
    packed = np.packbits(arr)  # MSB-first, zero-padded at the tail
    value = int.from_bytes(packed.tobytes(), "big") >> ((-n) % 8)
    return BitString(value, n)


def decode_bool_row(bits: BitString, n: int) -> np.ndarray:
    """Unpack ``n`` leading bits into a boolean vector (vectorised)."""
    if n == 0:
        return np.zeros(0, dtype=bool)
    nbytes = (n + 7) // 8
    head = bits[:n]
    value = head.value << (8 * nbytes - n)
    raw = np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8)
    return np.unpackbits(raw)[:n].astype(bool)


# ---------------------------------------------------------------------------
# decide-and-agree epilogue


def agree_on_witness(
    node: Node,
    found: bool,
    witness: Sequence[int] | None,
    k: int,
) -> Generator[None, None, tuple[bool, tuple[int, ...] | None]]:
    """Standard epilogue for search algorithms: every node broadcasts a
    ``found`` flag plus a k-tuple witness; all nodes agree on the witness
    of the lowest-id finder (or on "not found").

    Costs ``ceil((1 + k * ceil(log2 n)) / B)`` rounds.
    """
    n = node.n
    vw = uint_width(max(1, n - 1))
    w = BitWriter()
    w.write_bit(1 if found else 0)
    if found:
        if witness is None or len(witness) != k:
            raise ValueError("found=True requires a k-tuple witness")
        w.write_uints(list(witness), vw)
    else:
        w.write_uints([0] * k, vw)
    payloads = yield from all_broadcast(node, w.finish())
    for v in range(n):
        r = BitReader(payloads[v])
        if r.read_bit():
            return True, tuple(r.read_uints(k, vw))
    return False, None
