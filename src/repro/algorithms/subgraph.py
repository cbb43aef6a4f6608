"""Subgraph detection — Dolev, Lenzen & Peled [16] ("Tri, tri again").

To find a size-``k`` subgraph, split the nodes into ``g = floor(n^(1/k))``
groups; assign each node ``v`` a label ``l(v) in [g]^k`` so that every
label occurs; node ``v`` learns *all edges inside* ``S_v`` (the union of
its ``k`` labelled groups) and checks candidate tuples locally.  Each
node receives ``|S_v|^2 <= (k n^(1-1/k))^2`` bits, so routing costs
``O(k^2 n^(1-2/k))`` rounds — the ``1 - 2/k`` family of Figure 1 (with
triangle = 3-IS detection at ``n^(1/3)``).

The same harness detects induced patterns (independent sets need
*non*-edges, so ``induced=True``) and non-induced ones (cycles, cliques).
"""

from __future__ import annotations

from typing import Generator, Mapping, Sequence

import numpy as np

from ..clique.bits import BitString
from ..clique.graph import CliqueGraph
from ..clique.node import Node
from ..clique.routing import route
from .common import (
    agree_on_witness,
    decode_bool_rows,
    dolev_layout,
    encode_bool_row,
    group_of,
)

__all__ = [
    "learn_subclique_edges",
    "detect_pattern",
    "triangle_detection",
    "k_independent_set_detection",
    "k_clique_detection",
    "k_cycle_detection",
]


def learn_subclique_edges(
    node: Node, k: int, scheme: str = "lenzen"
) -> Generator[
    None,
    None,
    tuple[list[int], np.ndarray, tuple[int, ...], tuple[tuple[int, ...], ...]],
]:
    """The communication core of the Dolev et al. scheme.

    Returns ``(S_v, M, label, groups)`` where ``M`` is the full adjacency
    submatrix induced on ``S_v`` (indexed in ``S_v`` order).
    """
    n = node.n
    me = node.id
    layout = dolev_layout(n, k)
    unions = layout.unions
    row = np.asarray(node.input, dtype=bool)

    flows: dict[int, BitString] = {}
    for v in layout.audience[group_of(me, n, layout.g)]:
        flows[v] = encode_bool_row(row[unions[v]])
    received = yield from route(node, flows, scheme=scheme)

    s_v = unions[me].tolist()
    pos = layout.positions[me]
    m = np.zeros((len(s_v), len(s_v)), dtype=bool)
    m[[pos[src] for src in received]] = decode_bool_rows(
        received.values(), len(s_v)
    )
    # Our own row is local knowledge.
    if me in pos:
        m[pos[me]] = row[unions[me]]
    return s_v, m | m.T, layout.labels[me], layout.groups


def _match_pattern(
    s_v: Sequence[int],
    pos: Mapping[int, int],
    m: np.ndarray,
    label: tuple[int, ...],
    groups: Sequence[Sequence[int]],
    pattern: CliqueGraph,
    induced: bool,
) -> tuple[int, ...] | None:
    """Backtracking search for an ordered tuple ``(u_1..u_k)`` with
    ``u_i`` in the ``i``-th labelled group matching the pattern."""
    k = pattern.n
    candidate_lists = [[pos[u] for u in groups[j]] for j in label]
    pat = pattern.adjacency

    chosen: list[int] = []

    def ok(i: int, cand: int) -> bool:
        for j in range(i):
            if chosen[j] == cand:
                return False
            has = m[chosen[j], cand]
            want = bool(pat[j, i])
            if want and not has:
                return False
            if induced and not want and has:
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == k:
            return True
        for cand in candidate_lists[i]:
            if ok(i, cand):
                chosen.append(cand)
                if backtrack(i + 1):
                    return True
                chosen.pop()
        return False

    if backtrack(0):
        return tuple(s_v[c] for c in chosen)
    return None


def detect_pattern(
    node: Node,
    pattern: CliqueGraph,
    induced: bool = False,
    scheme: str = "lenzen",
) -> Generator[None, None, tuple[bool, tuple[int, ...] | None]]:
    """Detect a size-``k`` pattern (``k = pattern.n``); returns the agreed
    ``(found, witness)`` at every node."""
    k = pattern.n
    s_v, m, label, groups = yield from learn_subclique_edges(node, k, scheme)
    pos = dolev_layout(node.n, k).positions[node.id]
    witness = _match_pattern(s_v, pos, m, label, groups, pattern, induced)
    return (
        yield from agree_on_witness(node, witness is not None, witness, k)
    )


def triangle_detection(
    node: Node, scheme: str = "lenzen"
) -> Generator[None, None, tuple[bool, tuple[int, ...] | None]]:
    """Triangle detection with a vectorised local check (einsum over the
    three group submatrices)."""
    s_v, m, label, groups = yield from learn_subclique_edges(node, 3, scheme)
    pos = dolev_layout(node.n, 3).positions[node.id]
    g1 = [pos[u] for u in groups[label[0]]]
    g2 = [pos[u] for u in groups[label[1]]]
    g3 = [pos[u] for u in groups[label[2]]]
    m12 = m[np.ix_(g1, g2)].astype(np.int64)
    m23 = m[np.ix_(g2, g3)].astype(np.int64)
    m13 = m[np.ix_(g1, g3)].astype(np.int64)
    hits = np.einsum("ij,jk,ik->ik", m12, m23, m13)
    witness = None
    if hits.any():
        i, kk = np.unravel_index(int(np.argmax(hits)), hits.shape)
        j = int(np.argmax(m12[i] & m23[:, kk]))
        witness = (s_v[g1[i]], s_v[g2[j]], s_v[g3[kk]])
    return (yield from agree_on_witness(node, witness is not None, witness, 3))


def k_independent_set_detection(
    node: Node, k: int, scheme: str = "lenzen"
) -> Generator[None, None, tuple[bool, tuple[int, ...] | None]]:
    """k-IS detection: the induced empty pattern (Dolev et al. upper
    bound cited in Section 7: ``O(n^(1-2/k))`` rounds)."""
    return (
        yield from detect_pattern(
            node, CliqueGraph.empty(k), induced=True, scheme=scheme
        )
    )


def k_clique_detection(
    node: Node, k: int, scheme: str = "lenzen"
) -> Generator[None, None, tuple[bool, tuple[int, ...] | None]]:
    """k-clique detection: the complete pattern, non-induced."""
    return (
        yield from detect_pattern(
            node, CliqueGraph.complete(k), induced=False, scheme=scheme
        )
    )


def k_cycle_detection(
    node: Node, k: int, scheme: str = "lenzen"
) -> Generator[None, None, tuple[bool, tuple[int, ...] | None]]:
    """Simple k-cycle detection (Figure 1's k-CYCLE node)."""
    cycle = CliqueGraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])
    return (
        yield from detect_pattern(node, cycle, induced=False, scheme=scheme)
    )
