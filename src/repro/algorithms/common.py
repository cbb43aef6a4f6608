"""Shared helpers for the distributed algorithms.

Group partitions, label tuples (the Dolev–Lenzen–Peled label scheme used
by Theorems 9 and the subgraph algorithms), incidence-row encodings, and
the standard decide-and-agree epilogue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Generator, Iterable, Mapping, Sequence

import numpy as np

from ..clique.bits import (
    BitReader,
    BitString,
    BitWriter,
    concat_uints,
    uint_width,
)
from ..clique.errors import CliqueError, EncodingError
from ..clique.node import Node
from ..clique.primitives import all_broadcast

__all__ = [
    "group_partition",
    "group_of",
    "node_label",
    "label_union",
    "DolevLayout",
    "dolev_layout",
    "encode_bool_row",
    "decode_bool_row",
    "decode_bool_rows",
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


@dataclass(frozen=True, eq=False)
class DolevLayout:
    """The label scheme of an ``n``-node clique at one ``k``.

    Every node derives the same layout from ``(n, k)`` alone, so it is
    built once per clique size (:func:`dolev_layout`) and shared by all
    nodes.  Every field is immutable (tuples, read-only mappings and
    arrays), so no node can change another node's view.
    """

    #: Number of groups, ``floor(n^(1/k))``.
    g: int
    #: :func:`group_partition` ``(n, g)``.
    groups: tuple[tuple[int, ...], ...]
    #: ``labels[v]`` is :func:`node_label` ``(v, g, k)``.
    labels: tuple[tuple[int, ...], ...]
    #: ``unions[v]`` is ``S_v`` (:func:`label_union`), ascending, as a
    #: read-only ``intp`` array for indexing rows.
    unions: tuple[np.ndarray, ...]
    #: ``audience[j]``: the nodes whose label names group ``j``, ascending.
    audience: tuple[tuple[int, ...], ...]
    #: ``positions[v][u]``: the index of ``u`` in ``S_v``.
    positions: tuple[Mapping[int, int], ...]


@functools.lru_cache(maxsize=32)
def dolev_layout(n: int, k: int) -> DolevLayout:
    """The :class:`DolevLayout` of an ``n``-node clique at ``k``
    (cached per ``(n, k)``; the cache is bounded)."""
    g = int_ceil_root(n, k)
    groups = tuple(tuple(grp) for grp in group_partition(n, g))
    labels = tuple(node_label(v, g, k) for v in range(n))
    unions = []
    for lab in labels:
        union = np.array(label_union(lab, groups), dtype=np.intp)
        union.flags.writeable = False
        unions.append(union)
    audience: list[list[int]] = [[] for _ in range(g)]
    for v, lab in enumerate(labels):
        for j in sorted(set(lab)):
            audience[j].append(v)
    return DolevLayout(
        g=g,
        groups=groups,
        labels=labels,
        unions=tuple(unions),
        audience=tuple(tuple(a) for a in audience),
        positions=tuple(
            MappingProxyType({u: i for i, u in enumerate(union.tolist())})
            for union in unions
        ),
    )


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
    """Unpack ``n`` leading bits into a boolean vector (vectorised).

    Raises :class:`EncodingError` when ``bits`` is shorter than ``n``.
    """
    return decode_bool_rows((bits,), n)[0]


def decode_bool_rows(rows: Iterable[BitString], n: int) -> np.ndarray:
    """Unpack the ``n`` leading bits of each row into one ``(rows, n)``
    boolean matrix, with a single unpack for all rows.

    Rows are read in order, so with a lazy ``rows`` the first failing
    entry (a missing row, or one shorter than ``n`` bits, which raises
    :class:`EncodingError`) is the one a per-row loop would hit.
    """
    heads = []
    for bits in rows:
        length = len(bits)
        if n > length:
            raise EncodingError(
                f"read of {n} bits at offset 0 overruns {length}-bit message"
            )
        heads.append(bits.value >> (length - n))
    total = len(heads) * n
    if total == 0:
        return np.zeros((len(heads), n), dtype=bool)
    nbytes = (total + 7) // 8
    value = concat_uints(heads, n).value << (8 * nbytes - total)
    raw = np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8)
    return np.unpackbits(raw, count=total).reshape(len(heads), n).view(bool)


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
