#!/usr/bin/env python3
"""Scenario: routing-table computation in a fully connected cluster.

The congested clique models densely connected systems (the paper's
motivating setting): think of a rack of n machines with all-to-all
links, where the *application* topology is a sparse weighted overlay
graph.  Each machine knows only its own overlay links and the cluster
must compute global routing state.

The pipeline below computes, entirely by message passing under the
O(log n)-bit budget:

1. single-source shortest paths from a coordinator (Bellman-Ford),
2. all-pairs shortest paths via distributed (min,+) squaring
   (O(n^(1/3) log n) entry-loads per link — the Figure 1 bound).

Run:  python examples/cluster_routing.py
"""

import numpy as np

from repro.algorithms import apsp_minplus, bellman_ford_sssp
from repro.clique import INF, run_algorithm
from repro.problems import generators as gen
from repro.problems import reference as ref


def main() -> None:
    n, max_w = 24, 50
    overlay = gen.random_weighted_graph(n, 0.25, max_weight=max_w, seed=11)
    print(f"overlay: {overlay}")

    # --- 1. SSSP from the coordinator (node 0) --------------------------
    def sssp_prog(node):
        return (yield from bellman_ford_sssp(node))

    result = run_algorithm(
        sssp_prog,
        overlay,
        aux=lambda v: {"source": 0, "max_weight": max_w},
    )
    dist = np.array(result.common_output())
    reachable = int((dist < INF).sum())
    print(f"SSSP from node 0: {reachable}/{n} reachable, "
          f"max finite distance {dist[dist < INF].max()}, "
          f"rounds={result.rounds}")

    # --- 2. APSP (routing tables) ---------------------------------------
    def apsp_prog(node):
        row = yield from apsp_minplus(node)
        return row

    result = run_algorithm(
        apsp_prog,
        overlay,
        aux=lambda v: {"max_weight": max_w},
        bandwidth_multiplier=2,
    )
    table = np.stack([result.outputs[v] for v in range(n)])
    want = ref.apsp_matrix(overlay)
    ok = np.array_equal(np.minimum(table, INF), np.minimum(want, INF))
    print(f"APSP routing tables: verified={ok}, rounds={result.rounds}")
    print()
    print("every machine now holds its full distance row — built with "
          "bit-exact O(log n) messages only.")


if __name__ == "__main__":
    main()
