"""k-dominating set in O(n^(1-1/k)) rounds — Theorem 9.

The paper's algorithm (Section 7.1), a modification of Dolev et al.:

1. partition V into ``n^(1/k)`` groups of size ``O(n^(1-1/k))``,
2. assign every node a label in ``[n^(1/k)]^k`` so every label occurs,
3. node ``v`` learns *all edges incident to* ``S_v`` (the union of its
   labelled groups) — note "incident to", not "inside" as in subgraph
   detection — and locally checks whether some k-subset of ``S_v``
   dominates the whole graph.

If ``D = {v_1..v_k}`` dominates with ``v_i in S_{j_i}``, the node
labelled ``(j_1..j_k)`` sees all of D's incident edges and detects it.
Each node receives ``|S_v| * n <= k n^(2-1/k)`` bits, so the routing
cost is ``O(k n^(1-1/k))`` rounds — Theorem 9's bound.
"""

from __future__ import annotations

import itertools
from typing import Generator

import numpy as np

from ..clique.bits import BitString
from ..clique.node import Node
from ..clique.routing import route
from .common import (
    agree_on_witness,
    decode_bool_rows,
    dolev_layout,
    encode_bool_row,
    group_of,
)

__all__ = ["k_dominating_set", "local_dominating_check"]


def local_dominating_check(
    s_v: list[int],
    incident_rows: np.ndarray,
    n: int,
    k: int,
) -> tuple[int, ...] | None:
    """Find a k-subset of ``S_v`` dominating all of ``V``, given the full
    incidence rows of every node in ``S_v`` (``incident_rows[i]`` is the
    n-bit row of ``s_v[i]``).  Returns the subset or ``None``.
    """
    size = len(s_v)
    # closed neighbourhoods as bitmasks over V
    masks = []
    for i in range(size):
        mask = 0
        row = incident_rows[i]
        for u in range(n):
            if row[u]:
                mask |= 1 << u
        mask |= 1 << s_v[i]
        masks.append(mask)
    full = (1 << n) - 1
    for combo in itertools.combinations(range(size), k):
        covered = 0
        for i in combo:
            covered |= masks[i]
        if covered == full:
            return tuple(s_v[i] for i in combo)
    return None


def k_dominating_set(
    node: Node, k: int, scheme: str = "lenzen"
) -> Generator[None, None, tuple[bool, tuple[int, ...] | None]]:
    """Theorem 9: find a dominating set of size ``k`` (or report none).

    Returns the agreed ``(found, witness)`` at every node.
    """
    n = node.n
    me = node.id
    layout = dolev_layout(n, k)
    row = np.asarray(node.input, dtype=bool)

    # Step 3 communication: our full incidence row goes to every node v
    # whose label mentions our group (we are in S_v).
    encoded = encode_bool_row(row)
    flows: dict[int, BitString] = {
        v: encoded for v in layout.audience[group_of(me, n, layout.g)]
    }
    received = yield from route(node, flows, scheme=scheme)

    # One unpack for every received row; our own row is local knowledge
    # (a zero placeholder in the unpack, then overwritten).
    s_v = layout.unions[me].tolist()
    own = BitString.zeros(n)
    incident = decode_bool_rows((own if u == me else received[u] for u in s_v), n)
    pos = layout.positions[me]
    if me in pos:
        incident[pos[me]] = row
    witness = local_dominating_check(s_v, incident, n, k)
    return (yield from agree_on_witness(node, witness is not None, witness, k))
