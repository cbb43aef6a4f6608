"""Distributed matrix multiplication over semirings.

Implements the 3D ("cube partitioned") congested clique matrix
multiplication of Censor-Hillel et al. [10]: with ``g = floor(n^(1/3))``,
node ``(a, b, c) in [g]^3`` fetches the blocks ``A[Ba, Bb]`` and
``B[Bb, Bc]``, multiplies locally, and partial results are aggregated at
the row owners.  Per-node communication is ``O(n^(4/3))`` entries, so via
:func:`~repro.clique.routing.route` the round complexity is
``O(n^(1/3))`` entries-per-link — the paper's semiring MM bound.

The paper additionally cites ``delta(ring MM) <= 1 - 2/omega`` via
distributed Strassen-style block kernels [10, 41]; we expose ``omega`` in
the exponent registry but execute the cube algorithm for all semirings
(substitution documented in DESIGN.md — the communication schedule, the
object of study, is identical in structure).

Supported semirings: ``boolean`` (OR/AND), ``ring`` (+/*, unsigned), and
``minplus`` ((min, +) with an INF sentinel) — exactly the three flavours
in Figure 1 (Boolean MM, Ring MM, (min,+) MM / Semiring MM).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from ..clique.bits import (
    _SMALL_COUNT,
    _U64_WIDTH,
    BitReader,
    BitString,
    BitWriter,
    decode_uint_array,
    encode_uint_array,
    uint_width,
)
from ..clique.graph import INF
from ..clique.network import CongestedClique
from ..clique.node import Node
from ..clique.routing import route
from .common import group_partition, int_ceil_root

__all__ = [
    "Semiring",
    "BOOLEAN",
    "RING",
    "MINPLUS",
    "CubeLayout",
    "cube_layout",
    "distributed_matmul",
    "run_matmul",
]


@dataclass(frozen=True)
class Semiring:
    """A semiring with bit-exact wire encodings.

    ``local_matmul`` runs at a node (free local computation);
    ``combine`` accumulates partial result blocks (the semiring addition);
    ``in_width`` / ``acc_width`` give the wire widths for input entries
    and partial-result entries given the caller's ``max_entry`` bound.
    """

    name: str
    local_matmul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity: int  # additive identity (as an int64 value; INF for minplus)
    in_width: Callable[[int, int], int]
    acc_width: Callable[[int, int], int]
    uses_inf: bool = False

    def encode_entries(self, values: np.ndarray, width: int) -> BitString:
        """Pack entries at ``width`` bits each (INF -> the all-ones code)."""
        arr = np.asarray(values, dtype=np.int64).ravel()
        if arr.size == 0:
            return BitString.empty()
        if self.uses_inf:
            return encode_uint_array(self._inf_codes(arr, width), width)
        return encode_uint_array(arr, width)

    def _inf_codes(self, arr: np.ndarray, width: int) -> list[int] | np.ndarray:
        """``arr`` with INF as the all-ones code; a finite entry at or
        above that code raises ``ValueError``.

        Blocks of at most ``_SMALL_COUNT`` entries on lanes narrower than
        64 bits take an int loop, which beats numpy's per-call cost there;
        both forms raise at the same first entry.
        """
        sentinel = (1 << width) - 1
        if arr.size <= _SMALL_COUNT and width < _U64_WIDTH:
            codes = []
            for v in arr.tolist():
                if v >= INF:
                    v = sentinel
                elif v >= sentinel:
                    raise self._collision(v, width)
                codes.append(v)
            return codes
        infinite = arr >= INF
        colliding = ~infinite & (arr >= sentinel)
        if colliding.any():
            raise self._collision(int(arr[int(np.argmax(colliding))]), width)
        return np.where(infinite, np.int64(sentinel), arr)

    def _collision(self, value: int, width: int) -> ValueError:
        return ValueError(
            f"{self.name}: finite entry {value} collides with the "
            f"{width}-bit INF sentinel"
        )

    def decode_entries(self, bits: BitString, count: int, width: int) -> np.ndarray:
        """Unpack ``count`` entries of ``width`` bits each."""
        values = decode_uint_array(bits, count, width)
        if self.uses_inf:
            sentinel = (1 << width) - 1
            values = [INF if v == sentinel else v for v in values]
        return np.array(values, dtype=np.int64)


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.int64) @ b.astype(np.int64) > 0).astype(np.int64)


def _minplus_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.full((a.shape[0], b.shape[1]), INF, dtype=np.int64)
    for i in range(a.shape[0]):
        sums = a[i][:, None] + b
        out[i] = np.minimum(sums.min(axis=0), INF)
    return out


BOOLEAN = Semiring(
    name="boolean",
    local_matmul=_bool_matmul,
    combine=lambda x, y: ((x + y) > 0).astype(np.int64),
    identity=0,
    in_width=lambda n, m: 1,
    acc_width=lambda n, m: 1,
)

RING = Semiring(
    name="ring",
    local_matmul=lambda a, b: a @ b,
    combine=lambda x, y: x + y,
    identity=0,
    in_width=lambda n, m: uint_width(m),
    acc_width=lambda n, m: 2 * uint_width(m) + uint_width(n),
)

MINPLUS = Semiring(
    name="minplus",
    local_matmul=_minplus_matmul,
    combine=np.minimum,
    identity=INF,
    in_width=lambda n, m: uint_width(m) + 1,  # +1 for the INF sentinel
    acc_width=lambda n, m: uint_width(2 * max(1, m)) + 1,
    uses_inf=True,
)


def _maxmin_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(max, min) product — the bottleneck/widest-path semiring."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        caps = np.minimum(a[i][:, None], b)
        out[i] = caps.max(axis=0)
    return out


MAXMIN = Semiring(
    name="maxmin",
    local_matmul=_maxmin_matmul,
    combine=np.maximum,
    identity=0,  # capacity 0 = no path
    in_width=lambda n, m: uint_width(m),
    acc_width=lambda n, m: uint_width(m),
)

SEMIRINGS = {
    "boolean": BOOLEAN,
    "ring": RING,
    "minplus": MINPLUS,
    "maxmin": MAXMIN,
}


def _triple_of(t: int, g: int) -> tuple[int, int, int]:
    return (t // (g * g), (t // g) % g, t % g)


@dataclass(frozen=True)
class CubeLayout:
    """The cube partition of an ``n``-node clique into ``g`` blocks.

    Every node derives the same layout from ``(n, g)`` alone, so it is
    built once per clique size (:func:`cube_layout`) and shared by all
    nodes; every field is a tuple, so no node can change another node's
    view.
    """

    g: int
    #: :func:`group_partition` ``(n, g)``.
    blocks: tuple[tuple[int, ...], ...]
    #: Each block as a slice of a row (blocks are contiguous).
    spans: tuple[slice, ...]
    #: ``block_of[i]``: the block holding node ``i``.
    block_of: tuple[int, ...]
    #: ``position[i]``: node ``i``'s index inside its block.
    position: tuple[int, ...]
    #: ``targets[x]``: the cube nodes ``(t, a, b, c)``, in ``t`` order,
    #: with ``a == x`` or ``b == x`` (those that need a row of block x).
    targets: tuple[tuple[tuple[int, int, int, int], ...], ...]


@functools.lru_cache(maxsize=32)
def cube_layout(n: int, g: int) -> CubeLayout:
    """The :class:`CubeLayout` of ``n`` nodes in ``g`` blocks (cached per
    ``(n, g)``; the cache is bounded)."""
    blocks = tuple(tuple(blk) for blk in group_partition(n, g))
    block_of = [0] * n
    position = [0] * n
    for x, blk in enumerate(blocks):
        for p, i in enumerate(blk):
            block_of[i] = x
            position[i] = p
    targets: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g)]
    for t in range(g**3):
        a, b, c = _triple_of(t, g)
        targets[a].append((t, a, b, c))
        if b != a:
            targets[b].append((t, a, b, c))
    return CubeLayout(
        g=g,
        blocks=blocks,
        spans=tuple(
            slice(blk[0], blk[-1] + 1) if blk else slice(0, 0) for blk in blocks
        ),
        block_of=tuple(block_of),
        position=tuple(position),
        targets=tuple(tuple(ts) for ts in targets),
    )


def distributed_matmul(
    node: Node,
    a_row: np.ndarray,
    b_row: np.ndarray,
    semiring: Semiring,
    max_entry: int,
    scheme: str = "lenzen",
) -> Generator[None, None, np.ndarray]:
    """Compute ``C = A (x) B``; node ``i`` holds rows ``A[i]``/``B[i]`` and
    returns ``C[i]``.

    ``max_entry`` bounds every finite input entry (wire widths derive
    from it); all nodes must pass the same value.
    """
    n = node.n
    me = node.id
    layout = cube_layout(n, int_ceil_root(n, 3))
    g = layout.g
    blocks = layout.blocks
    spans = layout.spans
    block_of = layout.block_of
    position = layout.position
    in_w = semiring.in_width(n, max_entry)
    acc_w = semiring.acc_width(n, max_entry)
    a_row = np.asarray(a_row, dtype=np.int64)
    b_row = np.asarray(b_row, dtype=np.int64)

    # ---- Phase 1: distribute input blocks to the cube nodes.
    # Each A/B block goes to g cube nodes; encode it once, at its first
    # use in t order (so an unencodable entry fails where it always did).
    my_block = block_of[me]
    a_bits: dict[int, BitString] = {}
    b_bits: dict[int, BitString] = {}
    flows: dict[int, BitString] = {}
    for t, a, b, c in layout.targets[my_block]:
        w = BitWriter()
        if a == my_block:  # t needs our A row restricted to Bb
            if b not in a_bits:
                a_bits[b] = semiring.encode_entries(a_row[spans[b]], in_w)
            w.write_bits(a_bits[b])
        if b == my_block:  # t needs our B row restricted to Bc
            if c not in b_bits:
                b_bits[c] = semiring.encode_entries(b_row[spans[c]], in_w)
            w.write_bits(b_bits[c])
        payload = w.finish()
        if len(payload) > 0:
            flows[t] = payload
    received = yield from route(node, flows, scheme=scheme)

    # ---- Phase 2: local block multiply at cube nodes.
    partial = None
    if me < g**3:
        a, b, c = _triple_of(me, g)
        Ba, Bb, Bc = blocks[a], blocks[b], blocks[c]
        a_block = np.full((len(Ba), len(Bb)), semiring.identity, dtype=np.int64)
        b_block = np.full((len(Bb), len(Bc)), semiring.identity, dtype=np.int64)
        for src, bits in received.items():
            r = BitReader(bits)
            src_block = block_of[src]
            if src_block == a:
                chunk = r.read_bits(len(Bb) * in_w)
                a_block[position[src]] = semiring.decode_entries(
                    chunk, len(Bb), in_w
                )
            if src_block == b:
                chunk = r.read_bits(len(Bc) * in_w)
                b_block[position[src]] = semiring.decode_entries(
                    chunk, len(Bc), in_w
                )
        partial = semiring.local_matmul(a_block, b_block)

    # ---- Phase 3: aggregate partial rows at the row owners.
    flows3: dict[int, BitString] = {}
    if partial is not None:
        a, b, c = _triple_of(me, g)
        Ba = blocks[a]
        for idx, i in enumerate(Ba):
            flows3[i] = semiring.encode_entries(partial[idx], acc_w)
    received3 = yield from route(node, flows3, scheme=scheme)

    c_row = np.full(n, semiring.identity, dtype=np.int64)
    for t, bits in received3.items():
        a, b, c = _triple_of(t, g)
        span = spans[c]
        vals = semiring.decode_entries(bits, len(blocks[c]), acc_w)
        c_row[span] = semiring.combine(c_row[span], vals)
    return c_row


def run_matmul(
    a: np.ndarray,
    b: np.ndarray,
    semiring: Semiring,
    max_entry: int | None = None,
    scheme: str = "lenzen",
    bandwidth_multiplier: int = 2,
):
    """Driver: run the distributed multiplication of square matrices
    ``a @ b`` on an ``n``-node clique; returns ``(C, RunResult)``."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError("run_matmul needs square matrices of equal size")
    if max_entry is None:
        finite = [
            int(x)
            for m in (a, b)
            for x in m.ravel()
            if not (semiring.uses_inf and x >= INF)
        ]
        max_entry = max(finite, default=1) or 1

    def program(node: Node):
        row = yield from distributed_matmul(
            node,
            a[node.id],
            b[node.id],
            semiring,
            max_entry,
            scheme=scheme,
        )
        return row

    clique = CongestedClique(n, bandwidth_multiplier=bandwidth_multiplier)
    result = clique.run(program)
    c = np.stack([result.outputs[i] for i in range(n)])
    return c, result
