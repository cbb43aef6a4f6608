"""Whole-graph gathering — the trivial upper bounds.

Every decision problem is solvable in ``O(n / log n)`` rounds by having
each node broadcast its incidence row and deciding locally; this is the
baseline against which all other bounds are measured (and the reason the
time hierarchy theorem is stated for ``T(n) = O(n / log n)``).
"""

from __future__ import annotations

from typing import Callable, Generator

import numpy as np

from ..clique.bits import decode_uint_array, encode_uint_array
from ..clique.graph import INF, CliqueGraph
from ..clique.node import Node
from ..clique.primitives import all_broadcast_concat
from .common import decode_bool_row, encode_bool_row

__all__ = ["gather_graph", "gather_weighted_graph", "decide_by_gathering"]


def _input_row(node: Node) -> np.ndarray:
    """``node.input`` as a row of the n x n matrix the gathers rebuild."""
    row = np.asarray(node.input)
    if row.shape != (node.n,):
        raise ValueError(
            f"node {node.id}: input row has shape {row.shape}, expected "
            f"({node.n},)"
        )
    return row


def gather_graph(node: Node) -> Generator[None, None, np.ndarray]:
    """All nodes learn the full (unweighted, undirected) adjacency matrix.

    Each node broadcasts its n-bit incidence row: ``ceil(n / B)`` rounds.
    ``node.input`` must be the incidence row (the engine's default when
    run on a :class:`CliqueGraph`).
    """
    n = node.n
    row = encode_bool_row(_input_row(node))
    rows = yield from all_broadcast_concat(node, row)
    adj = decode_bool_row(rows, n * n).reshape(n, n)
    # Symmetrise: each unordered pair was reported by both endpoints.
    return adj | adj.T


def gather_weighted_graph(
    node: Node, weight_width: int
) -> Generator[None, None, np.ndarray]:
    """All nodes learn the full weighted adjacency matrix.

    Weights (and the INF no-edge sentinel) are transported as
    ``weight_width``-bit values; INF maps to the all-ones code.
    """
    n = node.n
    sentinel = (1 << weight_width) - 1
    row = [sentinel if int(x) >= INF else int(x) for x in _input_row(node)]
    for x in row:
        if x != sentinel and x >= sentinel:
            raise ValueError(
                f"weight {x} does not fit in {weight_width}-bit encoding"
            )
    rows = yield from all_broadcast_concat(
        node, encode_uint_array(row, weight_width)
    )
    # An object array: the sentinel of a width >= 64 does not fit int64.
    codes = np.array(decode_uint_array(rows, n * n, weight_width), dtype=object)
    out = np.where(codes == sentinel, INF, codes).astype(np.int64).reshape(n, n)
    np.fill_diagonal(out, 0)
    return np.minimum(out, out.T)


def decide_by_gathering(
    predicate: Callable[[CliqueGraph], bool],
) -> Callable[[Node], Generator[None, None, int]]:
    """Build the trivial decision algorithm for ``predicate``: gather the
    graph in ``ceil(n/B)`` rounds, decide locally, output 0/1."""

    def program(node: Node) -> Generator[None, None, int]:
        adj = yield from gather_graph(node)
        return int(predicate(CliqueGraph(adj)))

    return program
