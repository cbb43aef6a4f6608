"""Edge-case robustness: the algorithms on tiny cliques (n = 1, 2, 3).

Degenerate partition sizes (g = 1 groups), empty unions, single-node
collectives — places where off-by-one bugs in the group machinery would
hide.
"""

import pytest

from repro.algorithms import (
    bfs_distances,
    gather_graph,
    k_dominating_set,
    k_vertex_cover,
    max_independent_set,
    triangle_detection,
)
from repro.clique.algorithm import run_algorithm
from repro.clique.graph import CliqueGraph
from repro.problems import reference as ref


class TestSingleNode:
    def test_gather(self):
        g = CliqueGraph.empty(1)

        def prog(node):
            adj = yield from gather_graph(node)
            return adj.shape

        assert run_algorithm(prog, g).common_output() == (1, 1)

    def test_bfs(self):
        g = CliqueGraph.empty(1)

        def prog(node):
            d = yield from bfs_distances(node)
            return d.tolist()

        assert run_algorithm(prog, g, aux=0).common_output() == [0]

    def test_kvc(self):
        g = CliqueGraph.empty(1)

        def prog(node):
            return (yield from k_vertex_cover(node, 1))

        found, cover = run_algorithm(prog, g).common_output()
        assert found and cover == ()


class TestTwoNodes:
    def test_triangle_impossible(self):
        g = CliqueGraph.complete(2)

        def prog(node):
            return (yield from triangle_detection(node))

        found, _ = run_algorithm(prog, g, bandwidth_multiplier=2).common_output()
        assert not found

    def test_kds(self):
        g = CliqueGraph.complete(2)

        def prog(node):
            return (yield from k_dominating_set(node, 1))

        found, witness = run_algorithm(
            prog, g, bandwidth_multiplier=2
        ).common_output()
        assert found and ref.is_dominating_set(g, witness)


class TestThreeNodes:
    @pytest.mark.parametrize(
        "edges,expect",
        [([(0, 1), (1, 2), (0, 2)], True), ([(0, 1), (1, 2)], False)],
    )
    def test_triangle(self, edges, expect):
        g = CliqueGraph.from_edges(3, edges)

        def prog(node):
            return (yield from triangle_detection(node))

        found, _ = run_algorithm(prog, g, bandwidth_multiplier=2).common_output()
        assert found == expect

    def test_max_is(self):
        g = CliqueGraph.from_edges(3, [(0, 1)])

        def prog(node):
            return (yield from max_independent_set(node))

        mis = run_algorithm(prog, g).common_output()
        assert len(mis) == 2

    def test_kds_degenerate_groups(self):
        """n=3, k=2: g = floor(3^(1/2)) = 1, a single group — the union
        S_v is all of V and the algorithm degenerates to gathering."""
        g = CliqueGraph.from_edges(3, [(0, 1), (1, 2)])

        def prog(node):
            return (yield from k_dominating_set(node, 1))

        found, witness = run_algorithm(
            prog, g, bandwidth_multiplier=2
        ).common_output()
        assert found and witness == (1,)
