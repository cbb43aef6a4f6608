"""Convenience driver for running node programs on input graphs."""

from __future__ import annotations

from typing import Any

from .graph import CliqueGraph
from .network import CongestedClique, NodeProgram, RunResult

__all__ = ["run_algorithm"]


def run_algorithm(
    program: NodeProgram,
    graph: CliqueGraph,
    *,
    aux: Any = None,
    bandwidth_multiplier: int = 1,
    bandwidth: int | None = None,
    max_rounds: int | None = None,
    execution: Any = None,
) -> RunResult:
    """Run ``program`` on ``graph`` in a congested clique of ``graph.n`` nodes.

    This is a thin wrapper over :meth:`CongestedClique.run`: it builds
    the clique from the graph's size and forwards ``aux`` and
    ``execution`` (see that method).  Each node ``v`` receives
    ``graph.local_view(v)`` as its input and ``aux``'s per-node
    resolution as auxiliary input.
    """
    clique = CongestedClique(
        graph.n,
        bandwidth=bandwidth,
        bandwidth_multiplier=bandwidth_multiplier,
        max_rounds=max_rounds,
    )
    return clique.run(program, graph, aux=aux, execution=execution)
