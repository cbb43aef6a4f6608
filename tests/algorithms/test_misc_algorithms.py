"""Tests for MaxIS/MinVC, colouring and k-path colour coding."""

import pytest

from repro.algorithms.coloring import decide_k_colouring, find_k_colouring
from repro.algorithms.independent_set import max_independent_set, min_vertex_cover
from repro.algorithms.kpath import k_path_detection, trials_for
from repro.clique.algorithm import run_algorithm
from repro.clique.graph import CliqueGraph
from repro.problems import generators as gen
from repro.problems import reference as ref


class TestMaxIS:
    @pytest.mark.parametrize("seed", range(4))
    def test_size_matches_reference(self, seed):
        g = gen.random_graph(9, 0.4, seed)

        def prog(node):
            return (yield from max_independent_set(node))

        mis = run_algorithm(prog, g).common_output()
        assert ref.is_independent_set(g, mis)
        assert len(mis) == ref.max_independent_set_size(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_min_vertex_cover_gallai(self, seed):
        g = gen.random_graph(9, 0.4, seed)

        def prog(node):
            return (yield from min_vertex_cover(node))

        vc = run_algorithm(prog, g).common_output()
        assert ref.is_vertex_cover(g, vc)
        assert len(vc) == ref.min_vertex_cover_size(g)


class TestColouring:
    @pytest.mark.parametrize("seed", range(3))
    def test_decision_matches_reference(self, seed):
        g = gen.random_graph(8, 0.5, seed)

        def prog(node):
            return (yield from decide_k_colouring(node, 3))

        got = run_algorithm(prog, g).common_output()
        assert got == int(ref.is_k_colourable(g, 3))

    def test_find_colouring_valid(self):
        g, _ = gen.planted_colouring(10, 3, 0.7, 1)

        def prog(node):
            return (yield from find_k_colouring(node, 3))

        colours = run_algorithm(prog, g).common_output()
        assert colours is not None
        for u, v in g.edges():
            assert colours[u] != colours[v]

    def test_find_colouring_none(self):
        g = CliqueGraph.complete(5)

        def prog(node):
            return (yield from find_k_colouring(node, 3))

        assert run_algorithm(prog, g).common_output() is None


class TestKPath:
    def test_trials_formula(self):
        assert trials_for(1) == 1
        assert trials_for(3) >= 5

    @pytest.mark.parametrize("seed", range(3))
    def test_planted_path_found(self, seed):
        g, _ = gen.planted_hamiltonian_path(10, 0.0, seed)

        def prog(node):
            return (yield from k_path_detection(node, 4, seed=seed))

        found = run_algorithm(prog, g, bandwidth_multiplier=2).common_output()
        assert found  # one-sided error: may only miss, and a Ham path
        # gives many 4-paths so the miss probability is tiny

    def test_no_path_never_reported(self):
        """Soundness: an edgeless graph can never yield a path."""
        g = CliqueGraph.empty(8)

        def prog(node):
            return (yield from k_path_detection(node, 3, seed=7))

        assert not run_algorithm(prog, g, bandwidth_multiplier=2).common_output()

    def test_k1_trivial(self):
        g = CliqueGraph.empty(4)

        def prog(node):
            return (yield from k_path_detection(node, 1, seed=1))

        assert run_algorithm(prog, g).common_output()

    def test_rounds_independent_of_n(self):
        rounds = []
        for n in (12, 48):
            g, _ = gen.planted_hamiltonian_path(n, 0.0, 1)

            def prog(node):
                return (yield from k_path_detection(node, 3, trials=2, seed=5))

            rounds.append(
                run_algorithm(prog, g, bandwidth_multiplier=2).rounds
            )
        # Larger n means larger bandwidth, so rounds may even decrease.
        assert rounds[1] <= rounds[0] + 2

