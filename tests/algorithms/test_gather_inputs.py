"""Gathers at wide weight codes and with malformed input rows."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms.broadcast import gather_graph, gather_weighted_graph
from repro.clique.algorithm import run_algorithm
from repro.clique.graph import INF, CliqueGraph
from repro.problems import generators as gen


@pytest.mark.parametrize("width", [62, 63, 64, 70])
def test_weighted_gather_with_wide_codes(width):
    # The no-edge sentinel 2**width - 1 is beyond int64 from width 64 on.
    g = gen.random_weighted_graph(7, 0.4, 15, 2)
    assert (g.adjacency == INF).any()

    def prog(node):
        adj = yield from gather_weighted_graph(node, width)
        return adj.tobytes()

    result = run_algorithm(prog, g)
    assert result.common_output() == g.adjacency.tobytes()


def test_weight_equal_to_the_inf_code_is_rejected():
    # 15 is the all-ones code at width 4: it must not decode as INF.
    g = CliqueGraph.from_weighted_edges(3, [(0, 1, 15), (1, 2, 3)])

    def prog(node):
        adj = yield from gather_weighted_graph(node, 4)
        return adj.tobytes()

    with pytest.raises(ValueError, match="finite weight 15 collides"):
        run_algorithm(prog, g)


@pytest.mark.parametrize("gather", [gather_graph, gather_weighted_graph])
@pytest.mark.parametrize("row", [[1, 0], [1, 0, 1, 0], [[1, 0, 1]]])
def test_input_row_of_another_shape_is_rejected(gather, row):
    node = SimpleNamespace(n=3, id=1, input=np.array(row))
    args = (node,) if gather is gather_graph else (node, 8)
    with pytest.raises(ValueError, match=r"node 1: input row has shape"):
        next(gather(*args))
