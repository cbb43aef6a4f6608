"""Tests for widest-path (max,min) APSP."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.apsp import widest_paths_distributed
from repro.algorithms.matmul import MAXMIN, run_matmul
from repro.clique.algorithm import run_algorithm
from repro.clique.graph import INF, CliqueGraph
from repro.problems import generators as gen


def reference_widest(graph: CliqueGraph, max_cap: int) -> np.ndarray:
    """Floyd-Warshall over (max, min)."""
    n = graph.n
    cap = np.where(graph.adjacency >= INF, 0, graph.adjacency).astype(np.int64)
    np.fill_diagonal(cap, max_cap)
    for k in range(n):
        via = np.minimum(cap[:, k][:, None], cap[k, :][None, :])
        cap = np.maximum(cap, via)
    return cap


class TestWidestPaths:
    def test_maxmin_semiring_matmul(self):
        rng = gen.rng_from(3)
        n = 8
        a = rng.integers(0, 20, (n, n)).astype(np.int64)
        b = rng.integers(0, 20, (n, n)).astype(np.int64)
        c, _ = run_matmul(a, b, MAXMIN, max_entry=20)
        for i in range(n):
            for j in range(n):
                assert c[i, j] == max(
                    min(a[i, k], b[k, j]) for k in range(n)
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_widest_paths_match_reference(self, seed):
        g = gen.random_weighted_graph(9, 0.35, 20, seed)

        def prog(node):
            return (yield from widest_paths_distributed(node))

        result = run_algorithm(
            prog,
            g,
            aux=lambda v: {"max_capacity": 20},
            bandwidth_multiplier=2,
        )
        want = reference_widest(g, 20)
        for i in range(9):
            assert np.array_equal(result.outputs[i], want[i])

    def test_disconnected_capacity_zero(self):
        g = CliqueGraph.from_weighted_edges(4, [(0, 1, 7)])

        def prog(node):
            return (yield from widest_paths_distributed(node))

        result = run_algorithm(
            prog, g, aux=lambda v: {"max_capacity": 7}, bandwidth_multiplier=2
        )
        assert result.outputs[0][1] == 7
        assert result.outputs[0][2] == 0
        assert result.outputs[0][0] == 7  # self

    @pytest.mark.parametrize("seed", range(2))
    def test_bottleneck_vs_networkx_mst_property(self, seed):
        """Classic fact: the widest path between u and v equals the
        min edge on the u-v path in a MAXIMUM spanning tree."""
        g = gen.random_weighted_graph(8, 0.5, 30, seed)

        def prog(node):
            return (yield from widest_paths_distributed(node))

        result = run_algorithm(
            prog, g, aux=lambda v: {"max_capacity": 30}, bandwidth_multiplier=2
        )
        gx = g.to_networkx()
        if gx.number_of_edges() == 0:
            return
        mst = nx.maximum_spanning_tree(gx)
        for u in range(8):
            for v in range(8):
                if u == v:
                    continue
                try:
                    path = nx.shortest_path(mst, u, v)
                except nx.NetworkXNoPath:
                    assert result.outputs[u][v] == 0
                    continue
                bottleneck = min(
                    mst[a][b]["weight"] for a, b in zip(path, path[1:])
                )
                assert result.outputs[u][v] == bottleneck
