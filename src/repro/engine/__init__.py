"""Pluggable execution engines for the congested clique simulator.

One semantic model, multiple interchangeable execution backends:

* :class:`~repro.engine.reference.ReferenceEngine` (``"reference"``) —
  the always-validating, transcript-capable lockstep engine; the
  semantic ground truth and the default for
  :meth:`repro.clique.network.CongestedClique.run`.
* :class:`~repro.engine.fast.FastEngine` (``"fast"``) — batched message
  delivery, selectable validation (``check="full"|"bandwidth"``),
  transcripts off by default; differentially tested against the
  reference backend on the algorithm catalog.
* :func:`~repro.engine.pool.run_sweep` — a multiprocess sweep runner
  fanning ``(n, seed, params)`` grids across worker processes with
  deterministic per-task seeding.
* :class:`~repro.engine.cache.RunCache` — a content-addressed on-disk
  run cache keyed by (program name, n, bandwidth, input digest, engine
  config), so re-run sweeps and benchmark reruns are free.
* :mod:`repro.engine.diff` — the algorithm catalog and the
  differential matrix (:func:`~repro.engine.diff.run_matrix`) holding
  every backend to the reference engine's outputs, rounds, bits and
  metrics, fault-free and under fault plans.

Quickstart::

    from repro.clique import CliqueGraph, run_algorithm
    from repro.engine import FastEngine, run_sweep
    from repro.engine.diff import catalog_factory

    result = run_algorithm(program, g, execution="fast")
    result = run_algorithm(program, g, execution=FastEngine(check="full"))

    outcomes = run_sweep(
        catalog_factory,
        [{"algorithm": "subgraph", "n": n, "seed": s}
         for n in (27, 64, 125) for s in range(3)],
        workers=4,
    )
"""

from .base import (
    CHECK_LEVELS,
    ENGINES,
    Engine,
    canonical_check,
    engine_names,
    register_engine,
    resolve_engine,
)
from .cache import RunCache, content_digest, default_cache_dir
from .columnar import (
    ArrayContext,
    BulkBatch,
    ColumnarEngine,
    DualProgram,
    adapt_generator,
    array_program,
)
from .diff import (
    CATALOG,
    COLUMNAR_CATALOG,
    COST_DECLARATIONS,
    NATIVE_RESILIENT,
    RESILIENT_CATALOG,
    Cell,
    algorithm,
    catalog_factory,
    compare,
    run_matrix,
)
from .fast import FastEngine
from .pool import (
    RunSpec,
    SweepOutcome,
    aggregate_sweep_metrics,
    derive_seed,
    pool_stats,
    run_spec,
    run_sweep,
    shutdown_pool,
)
from .reference import ReferenceEngine
from .spec import (
    BATCH_ENGINE,
    ExecutionSpec,
    batch_execution,
    resolve_execution,
)

__all__ = [
    "ArrayContext",
    "BATCH_ENGINE",
    "BulkBatch",
    "CATALOG",
    "CHECK_LEVELS",
    "COLUMNAR_CATALOG",
    "COST_DECLARATIONS",
    "Cell",
    "ColumnarEngine",
    "DualProgram",
    "ENGINES",
    "Engine",
    "ExecutionSpec",
    "FastEngine",
    "NATIVE_RESILIENT",
    "RESILIENT_CATALOG",
    "ReferenceEngine",
    "RunCache",
    "RunSpec",
    "SweepOutcome",
    "adapt_generator",
    "aggregate_sweep_metrics",
    "algorithm",
    "array_program",
    "batch_execution",
    "canonical_check",
    "catalog_factory",
    "compare",
    "content_digest",
    "default_cache_dir",
    "derive_seed",
    "engine_names",
    "pool_stats",
    "register_engine",
    "resolve_engine",
    "resolve_execution",
    "run_matrix",
    "run_spec",
    "run_sweep",
    "shutdown_pool",
]
