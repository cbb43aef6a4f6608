"""repro — an executable reproduction of

    Korhonen & Suomela, "Towards a Complexity Theory for the Congested
    Clique", SPAA 2018 (arXiv:1705.03284).

The package layers:

* :mod:`repro.clique` — the congested clique simulator (round model,
  bit-exact messages, routing, sorting, collectives),
* :mod:`repro.engine` — pluggable execution backends (validating
  reference engine, batched fast engine), the multiprocess sweep
  runner, the on-disk run cache and the engine differential checker,
* :mod:`repro.faults` — deterministic, seed-replayable fault injection
  (drops, corruption, duplication, link failures, crashes) and the
  ``resilient`` ack/retransmit wrapper that masks omission faults at an
  honest round/bit cost,
* :mod:`repro.algorithms` — every distributed upper bound the paper
  states or uses (Theorems 9 and 11, Dolev et al. subgraph detection,
  matrix multiplication, APSP/SSSP/BFS, k-path),
* :mod:`repro.core` — the complexity theory itself (Lemma 1 counting,
  the Theorem 2/4/8 hierarchies, Theorem 3 normal form, the Theorem 7
  collapse, Theorem 6 edge labellings, the Figure 1 exponent registry),
* :mod:`repro.reductions` — the executable arrows of Figure 1 including
  the Theorem 10 gadget (Figure 2),
* :mod:`repro.problems` — decision problems, generators and reference
  solvers,
* :mod:`repro.analysis` — exponent fitting and report tables.

Quickstart::

    from repro.clique import CliqueGraph, run_algorithm
    from repro.algorithms import triangle_detection

    g = CliqueGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])

    def program(node):
        return (yield from triangle_detection(node))

    result = run_algorithm(program, g, bandwidth_multiplier=2)
    found, witness = result.common_output()
"""

from . import (
    algorithms,
    analysis,
    clique,
    core,
    engine,
    faults,
    problems,
    reductions,
)

__version__ = "0.1.0"

__all__ = [
    "algorithms",
    "analysis",
    "clique",
    "core",
    "engine",
    "faults",
    "problems",
    "reductions",
    "__version__",
]
