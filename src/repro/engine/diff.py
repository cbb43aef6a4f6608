"""Differential checking between execution backends.

The reference engine is the semantic ground truth; every other backend
must produce identical ``RunResult.outputs`` and ``rounds`` on valid
programs.  This module provides

* :data:`CATALOG` — named spec builders covering the library's
  algorithm families (broadcast/gather, BFS, APSP, matrix
  multiplication, k-dominating set, k-vertex cover, subgraph detection,
  sorting, k-independent set), each parameterised by a config dict with
  ``n``/``seed``/problem parameters;
* :func:`catalog_factory` — a picklable sweep factory dispatching on
  ``config["algorithm"]`` (usable directly with
  :func:`~repro.engine.pool.run_sweep`, and the source of the
  ``catalog/*`` workloads in :mod:`repro.bench`);
* :func:`diff_engines` / :func:`assert_engines_agree` — run one spec on
  several backends and compare outputs, round counts and bit totals;
* :func:`diff_resilient` — run catalog algorithms wrapped in the
  :func:`repro.faults.resilient` ack/retransmit layer under a lossy
  :class:`~repro.faults.FaultPlan` and check the outputs still match a
  fault-free reference run (:data:`RESILIENT_CATALOG` names the
  message-passing subset the wrapper supports — no bulk channel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..clique.errors import CliqueError, did_you_mean
from ..clique.network import RunResult, _outputs_equal
from .base import Engine
from .pool import RunSpec, run_spec

__all__ = [
    "CATALOG",
    "COLUMNAR_CATALOG",
    "COLUMNAR_FAULT_PLANS",
    "COST_DECLARATIONS",
    "EngineDiff",
    "NATIVE_RESILIENT",
    "RESILIENT_CATALOG",
    "algorithm",
    "assert_engines_agree",
    "catalog_factory",
    "diff_catalog",
    "diff_columnar",
    "diff_engines",
    "diff_resilient",
]


# ---------------------------------------------------------------------------
# Algorithm catalog: name -> (config -> RunSpec)
# ---------------------------------------------------------------------------

#: Named spec builders: algorithm name -> (config -> RunSpec).  Populated
#: by the :func:`algorithm` decorator below.
CATALOG: dict[str, Callable[[dict], RunSpec]] = {}

#: Catalog entries whose :class:`~repro.engine.columnar.DualProgram`
#: carries a columnar form, i.e. the set :func:`diff_columnar` gates.
COLUMNAR_CATALOG: tuple[str, ...] = ()

#: Analytic-twin declarations: catalog entry name -> the
#: :mod:`repro.analysis.symbolic` cost-model name it is accountable to.
#: Populated by the ``cost=`` key of the :func:`algorithm` decorator;
#: ``validate_symbolic()`` and the coverage test require every declared
#: name to resolve to a registered :class:`~repro.analysis.symbolic.CostModel`.
COST_DECLARATIONS: dict[str, str] = {}


def algorithm(
    name: str, *, columnar: bool = False, cost: str | None = None
) -> Callable[[Callable[[dict], RunSpec]], Callable[[dict], RunSpec]]:
    """Register a catalog entry: ``@algorithm("name")`` on a spec builder.

    ``columnar=True`` declares that the builder's program is a
    :class:`~repro.engine.columnar.DualProgram` carrying both the
    generator form and a columnar array form, adding the entry to
    :data:`COLUMNAR_CATALOG` so the columnar differential gate picks it
    up automatically.

    ``cost`` names the entry's analytic twin — the symbolic
    :class:`~repro.analysis.symbolic.CostModel` whose closed forms must
    reproduce this builder's metered rounds and bits exactly (defaults
    to the entry's own name).  Recorded in :data:`COST_DECLARATIONS`;
    enforced by ``repro predict --validate`` and the CI symbolic-gate.
    """

    def register(builder: Callable[[dict], RunSpec]) -> Callable[[dict], RunSpec]:
        global COLUMNAR_CATALOG
        if name in CATALOG:
            raise CliqueError(f"catalog algorithm {name!r} already registered")
        CATALOG[name] = builder
        COST_DECLARATIONS[name] = cost or name
        if columnar:
            COLUMNAR_CATALOG = COLUMNAR_CATALOG + (name,)
        return builder

    return register


def _graph(config: dict, default_p: float = 0.3):
    from ..problems import generators as gen

    return gen.random_graph(
        int(config.get("n", 9)),
        float(config.get("p", default_p)),
        int(config.get("seed", 0)),
    )


@algorithm("broadcast")
def _spec_broadcast(config: dict) -> RunSpec:
    """Whole-graph gathering: every node learns the adjacency matrix."""
    from ..algorithms import gather_graph

    def prog(node):
        adj = yield from gather_graph(node)
        return adj

    return RunSpec(program=prog, node_input=_graph(config), bandwidth_multiplier=2)


@algorithm("bfs")
def _spec_bfs(config: dict) -> RunSpec:
    """BFS distances from node 0."""
    from ..algorithms import bfs_distances

    def prog(node):
        return (yield from bfs_distances(node))

    return RunSpec(
        program=prog,
        node_input=_graph(config),
        aux=int(config.get("source", 0)),
        bandwidth_multiplier=2,
    )


@algorithm("apsp")
def _spec_apsp(config: dict) -> RunSpec:
    """APSP by repeated (min,+) squaring over the cube-partitioned MM."""
    from ..algorithms import apsp_minplus
    from ..problems import generators as gen

    max_weight = int(config.get("max_weight", 15))
    g = gen.random_weighted_graph(
        int(config.get("n", 8)),
        float(config.get("p", 0.4)),
        max_weight,
        int(config.get("seed", 0)),
    )

    def prog(node):
        return (yield from apsp_minplus(node))

    # Dict aux must be wrapped: a bare Mapping is resolved per-node.
    return RunSpec(
        program=prog,
        node_input=g,
        aux=lambda v: {"max_weight": max_weight},
        bandwidth_multiplier=2,
    )


@algorithm("matmul", columnar=True)
def _spec_matmul(config: dict) -> RunSpec:
    """Integer matrix product; node i holds rows A[i], B[i], returns C[i]."""
    from ..algorithms import RING, distributed_matmul
    from ..problems import generators as gen

    n = int(config.get("n", 8))
    max_entry = int(config.get("max_entry", 8))
    rng = gen.rng_from(int(config.get("seed", 0)))
    a = rng.integers(0, max_entry, (n, n)).astype(np.int64)
    b = rng.integers(0, max_entry, (n, n)).astype(np.int64)
    rows = [(a[i].copy(), b[i].copy()) for i in range(n)]

    def prog(node):
        a_row, b_row = node.input
        row = yield from distributed_matmul(node, a_row, b_row, RING, max_entry)
        return row

    from ..algorithms.columnar import matmul_array
    from .columnar import DualProgram

    return RunSpec(
        program=DualProgram(prog, matmul_array, "matmul"),
        node_input=rows,
        aux=lambda v: {"max_entry": max_entry, "scheme": "lenzen"},
        n=n,
        bandwidth_multiplier=2,
    )


@algorithm("kds")
def _spec_kds(config: dict) -> RunSpec:
    """Theorem 9: k-dominating set detection."""
    from ..algorithms import k_dominating_set

    k = int(config.get("k", 2))

    def prog(node):
        return (yield from k_dominating_set(node, k))

    return RunSpec(program=prog, node_input=_graph(config), bandwidth_multiplier=2)


@algorithm("kvc")
def _spec_kvc(config: dict) -> RunSpec:
    """Theorem 11: k-vertex cover in O(k) rounds."""
    from ..algorithms import k_vertex_cover

    k = int(config.get("k", 3))

    def prog(node):
        return (yield from k_vertex_cover(node, k))

    return RunSpec(program=prog, node_input=_graph(config), bandwidth_multiplier=2)


@algorithm("subgraph")
def _spec_subgraph(config: dict) -> RunSpec:
    """Dolev et al. subgraph detection (triangles)."""
    from ..algorithms import triangle_detection

    def prog(node):
        return (yield from triangle_detection(node))

    return RunSpec(program=prog, node_input=_graph(config), bandwidth_multiplier=2)


@algorithm("kis")
def _spec_kis(config: dict) -> RunSpec:
    """k-independent-set detection (the Theorem 10 source problem)."""
    from ..algorithms import k_independent_set_detection

    k = int(config.get("k", 3))

    def prog(node):
        return (yield from k_independent_set_detection(node, k))

    return RunSpec(
        program=prog,
        node_input=_graph(config, default_p=0.4),
        bandwidth_multiplier=2,
    )


@algorithm("sorting", columnar=True)
def _spec_sorting(config: dict) -> RunSpec:
    """Distributed sorting of per-node key lists."""
    from ..clique.sorting import distributed_sort
    from ..problems import generators as gen

    n = int(config.get("n", 8))
    key_width = int(config.get("key_width", 10))
    keys_per_node = int(config.get("keys_per_node", 3))
    rng = gen.rng_from(int(config.get("seed", 0)))
    keys = [
        [int(x) for x in rng.integers(0, 1 << key_width, size=keys_per_node)]
        for _ in range(n)
    ]

    def prog(node):
        return (yield from distributed_sort(node, node.input, key_width))

    from ..algorithms.columnar import sorting_array
    from .columnar import DualProgram

    return RunSpec(
        program=DualProgram(prog, sorting_array, "sorting"),
        node_input=keys,
        aux=lambda v: {"key_width": key_width, "scheme": "lenzen"},
        n=n,
        bandwidth_multiplier=2,
    )


@algorithm("fanout", columnar=True)
def _spec_fanout(config: dict) -> RunSpec:
    """All-to-all broadcast stress: R rounds of evolving broadcasts.

    Each node's output is ``(messages received, xor fold of received
    values)``, so the result is sensitive to every single delivery —
    the entry the fault-plan parity diff leans on.
    """
    from ..algorithms.columnar import fanout_array, fanout_generator
    from .columnar import DualProgram

    n = int(config.get("n", 8))
    rounds = int(config.get("rounds", 3))
    seed = int(config.get("seed", 0))
    inputs = [(seed * 7919 + 31 * v + 1) for v in range(n)]
    return RunSpec(
        program=DualProgram(fanout_generator, fanout_array, "fanout"),
        node_input=inputs,
        aux=rounds,
        n=n,
        bandwidth_multiplier=int(config.get("bandwidth_multiplier", 2)),
    )


@algorithm("fanout_work", columnar=True)
def _spec_fanout_work(config: dict) -> RunSpec:
    """Compute-heavy fan-out: lane mixing plus k-regular ring digests.

    The shard-parallel stress entry — per-node hidden uint64 lane state
    mixed ``passes`` times per round (the work extra cores split),
    digests unicast to the ``min(8, n-1)`` next ring neighbours, and an
    output folding every delivery *and* the final lane state.
    """
    from ..algorithms.columnar import (
        fanout_work_array,
        fanout_work_generator,
    )
    from .columnar import DualProgram

    n = int(config.get("n", 8))
    seed = int(config.get("seed", 0))
    aux = {
        "rounds": int(config.get("rounds", 3)),
        "state": int(config.get("state", 16)),
        "passes": int(config.get("passes", 2)),
    }
    inputs = [(seed * 7919 + 31 * v + 1) for v in range(n)]
    return RunSpec(
        program=DualProgram(
            fanout_work_generator, fanout_work_array, "fanout_work"
        ),
        node_input=inputs,
        aux=lambda v: dict(aux),
        n=n,
        bandwidth_multiplier=int(config.get("bandwidth_multiplier", 2)),
    )


@algorithm("routing", columnar=True)
def _spec_routing(config: dict) -> RunSpec:
    """Relay-scheme routing of pseudo-random variable-length flows."""
    from ..algorithms.columnar import routing_array, routing_generator
    from .columnar import DualProgram

    n = int(config.get("n", 8))
    scheme = str(config.get("scheme", "relay"))
    return RunSpec(
        program=DualProgram(routing_generator, routing_array, "routing"),
        node_input=list(range(n)),
        aux=scheme,
        n=n,
        bandwidth_multiplier=int(config.get("bandwidth_multiplier", 2)),
    )


def _byzantine_point(config: dict) -> tuple[int, int, int, int, int]:
    """Shared parameter resolution for the Byzantine broadcast entries."""
    n = int(config.get("n", 9))
    f = int(config.get("f", 1))
    broadcaster = int(config.get("broadcaster", 0))
    value_width = int(config.get("value_width", 8))
    value = int(config.get("value", 0xB5)) & ((1 << value_width) - 1)
    return n, f, broadcaster, value_width, value


@algorithm("bracha", columnar=True)
def _spec_bracha(config: dict) -> RunSpec:
    """Bracha reliable broadcast (natively Byzantine-resilient)."""
    from ..algorithms import bracha_broadcast
    from .columnar import DualProgram, adapt_generator

    n, f, broadcaster, value_width, value = _byzantine_point(config)

    def prog(node):
        return (
            yield from bracha_broadcast(
                node, broadcaster=broadcaster, f=f, value_width=value_width
            )
        )

    return RunSpec(
        program=DualProgram(prog, adapt_generator(prog), "bracha"),
        node_input=[value] * n,
        n=n,
        bandwidth=2 + value_width,
    )


@algorithm("dolev", columnar=True)
def _spec_dolev(config: dict) -> RunSpec:
    """Dolev path-verified relay (natively Byzantine-resilient)."""
    from ..algorithms import dolev_broadcast
    from .columnar import DualProgram, adapt_generator

    n, f, broadcaster, value_width, value = _byzantine_point(config)

    def prog(node):
        return (
            yield from dolev_broadcast(
                node, broadcaster=broadcaster, f=f, value_width=value_width
            )
        )

    return RunSpec(
        program=DualProgram(prog, adapt_generator(prog), "dolev"),
        node_input=[value] * n,
        n=n,
        bandwidth=value_width,
    )


def catalog_factory(config: dict) -> RunSpec:
    """Sweep factory dispatching on ``config["algorithm"]``.

    Module-level and picklable, so it can be handed straight to
    :func:`~repro.engine.pool.run_sweep` from any process.
    """
    name = config.get("algorithm")
    try:
        builder = CATALOG[name]
    except KeyError:
        known = sorted(CATALOG)
        hint = did_you_mean(str(name), known)
        raise CliqueError(
            f"unknown catalog algorithm {name!r}; known: {known}{hint}"
        ) from None
    return builder(config)


# ---------------------------------------------------------------------------
# Differential checking
# ---------------------------------------------------------------------------


@dataclass
class EngineDiff:
    """Comparison of one run across several backends."""

    label: str
    engines: tuple[str, ...]
    rounds: dict[str, int] = field(default_factory=dict)
    total_message_bits: dict[str, int] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every backend agreed on outputs and round counts."""
        return not self.mismatches

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            rounds = next(iter(self.rounds.values()), 0)
            return f"{self.label}: {'/'.join(self.engines)} agree ({rounds} rounds)"
        return f"{self.label}: MISMATCH — " + "; ".join(self.mismatches)


def _engine_label(engine: "str | Engine | None") -> str:
    if engine is None:
        return "reference"
    if isinstance(engine, Engine):
        return engine.name
    return str(engine)


def diff_engines(
    factory: Callable[[dict], RunSpec],
    config: dict,
    engines: Sequence["str | Engine"] = ("reference", "fast"),
    label: str | None = None,
    symbolic: bool = False,
) -> EngineDiff:
    """Run one grid point on every backend and compare the results.

    The spec is rebuilt from ``factory(config)`` for each backend so no
    state leaks between runs.  Outputs are compared node by node with
    the same numpy-tolerant equality ``RunResult.common_output`` uses;
    round counts and total message/bulk bits must match exactly.

    ``symbolic=True`` folds the algorithm's analytic twin into the
    comparison surface: the :class:`~repro.analysis.symbolic.CostModel`
    declared for ``config["algorithm"]`` is evaluated at the same point
    and its closed-form rounds and total bits must match the baseline
    engine exactly, reported as a pseudo-engine row ``"symbolic"``.  The
    model's ``domain`` pins (e.g. ``scheme="lenzen"`` for routing) are
    merged into the config *before* the engines run, so every backend
    and the closed form see the identical instance.
    """
    model = None
    if symbolic:
        from ..analysis.symbolic import get_cost_model

        algo = config.get("algorithm", label)
        model = get_cost_model(COST_DECLARATIONS.get(algo, algo))
        config = model.config(config)
    names = tuple(_engine_label(e) for e in engines)
    report = EngineDiff(
        label=label or config.get("algorithm", "program"),
        engines=names + (("symbolic",) if model is not None else ()),
    )
    results: dict[str, RunResult] = {}
    for engine, name in zip(engines, names):
        result, _ = run_spec(factory(dict(config)), engine)
        results[name] = result
        report.rounds[name] = result.rounds
        report.total_message_bits[name] = result.total_message_bits

    baseline_name = names[0]
    if model is not None:
        predicted = model.evaluate(config)
        report.rounds["symbolic"] = predicted.rounds
        report.total_message_bits["symbolic"] = predicted.message_bits
        base = results[baseline_name]
        if predicted.rounds != base.rounds:
            report.mismatches.append(
                f"symbolic rounds: {baseline_name}={base.rounds} "
                f"closed-form={predicted.rounds}"
            )
        if predicted.message_bits != base.total_message_bits:
            report.mismatches.append(
                f"symbolic message bits: {baseline_name}="
                f"{base.total_message_bits} closed-form={predicted.message_bits}"
            )
        if predicted.bulk_bits != base.bulk_bits:
            report.mismatches.append(
                f"symbolic bulk bits: {baseline_name}={base.bulk_bits} "
                f"closed-form={predicted.bulk_bits}"
            )
    baseline = results[baseline_name]
    for name in names[1:]:
        other = results[name]
        if other.rounds != baseline.rounds:
            report.mismatches.append(
                f"rounds: {baseline_name}={baseline.rounds} {name}={other.rounds}"
            )
        if sorted(other.outputs) != sorted(baseline.outputs):
            report.mismatches.append(
                f"output nodes differ: {baseline_name}={sorted(baseline.outputs)} "
                f"{name}={sorted(other.outputs)}"
            )
            continue
        for v in sorted(baseline.outputs):
            if not _outputs_equal(baseline.outputs[v], other.outputs[v]):
                report.mismatches.append(
                    f"node {v} output: {baseline_name}={baseline.outputs[v]!r} "
                    f"{name}={other.outputs[v]!r}"
                )
        if other.total_message_bits != baseline.total_message_bits:
            report.mismatches.append(
                f"message bits: {baseline_name}={baseline.total_message_bits} "
                f"{name}={other.total_message_bits}"
            )
        if other.bulk_bits != baseline.bulk_bits:
            report.mismatches.append(
                f"bulk bits: {baseline_name}={baseline.bulk_bits} "
                f"{name}={other.bulk_bits}"
            )
    return report


def assert_engines_agree(
    factory: Callable[[dict], RunSpec],
    config: dict,
    engines: Sequence["str | Engine"] = ("reference", "fast"),
    label: str | None = None,
) -> EngineDiff:
    """:func:`diff_engines`, raising :class:`CliqueError` on any mismatch."""
    report = diff_engines(factory, config, engines=engines, label=label)
    if not report.ok:
        raise CliqueError(report.summary())
    return report


#: Catalog algorithms compatible with the :func:`repro.faults.resilient`
#: wrapper: pure message-passing, no cost-model bulk channel (the
#: wrapper's 3-bit frame header lives inside the per-link budget, so
#: bulk sends are rejected).  The :data:`NATIVE_RESILIENT` subset is
#: resilient *by protocol design* and runs unwrapped.
RESILIENT_CATALOG: tuple[str, ...] = ("bfs", "broadcast", "kvc", "bracha", "dolev")

#: Catalog entries that tolerate faults natively (Byzantine broadcast
#: protocols): :func:`diff_resilient` runs them unwrapped and compares
#: engine against engine — outputs, rounds, bits *and* full metrics
#: including per-behaviour fault counters — instead of against a
#: fault-free baseline (their outputs legitimately depend on the
#: injected adversary, so "same as fault-free" is not the contract;
#: "identical on every backend" is).
NATIVE_RESILIENT: frozenset[str] = frozenset({"bracha", "dolev"})


def diff_resilient(
    names: Sequence[str] | None = None,
    config: dict | None = None,
    *,
    fault_plan: "str | object" = "drop=0.2",
    engines: Sequence["str | Engine"] = ("reference", "fast"),
    timeout: int = 2,
    max_attempts: int = 8,
    backoff_cap: int = 8,
) -> list[EngineDiff]:
    """Differentially verify the resilience layer under injected faults.

    For each named algorithm the fault-free reference run is the ground
    truth; the same program wrapped in :func:`repro.faults.resilient` is
    then executed under ``fault_plan`` on every backend, and the outputs
    must match node for node.  Round counts and bit totals legitimately
    grow (the ack/retransmit protocol pays for masking the faults), so
    the report records them per backend — next to the ``"fault-free"``
    baseline — without treating the growth as a mismatch.

    ``names`` defaults to :data:`RESILIENT_CATALOG`; algorithms using
    the bulk channel are incompatible with the wrapper and will raise.
    """
    from ..faults import resilient

    reports = []
    for name in names if names is not None else RESILIENT_CATALOG:
        point = dict(config or {})
        point["algorithm"] = name
        engine_names = tuple(_engine_label(e) for e in engines)
        if name in NATIVE_RESILIENT:
            reports.append(
                _diff_native_resilient(point, engines, engine_names, fault_plan)
            )
            continue
        report = EngineDiff(label=f"resilient:{name}", engines=engine_names)
        baseline, _ = run_spec(catalog_factory(dict(point)), "reference")
        report.rounds["fault-free"] = baseline.rounds
        report.total_message_bits["fault-free"] = baseline.total_message_bits
        for engine, engine_name in zip(engines, engine_names):
            spec = catalog_factory(dict(point))
            spec.program = resilient(
                spec.program,
                timeout=timeout,
                max_attempts=max_attempts,
                backoff_cap=backoff_cap,
            )
            result, _ = run_spec(spec, engine, fault_plan=fault_plan)
            report.rounds[engine_name] = result.rounds
            report.total_message_bits[engine_name] = result.total_message_bits
            if sorted(result.outputs) != sorted(baseline.outputs):
                report.mismatches.append(
                    f"output nodes differ: fault-free="
                    f"{sorted(baseline.outputs)} "
                    f"{engine_name}={sorted(result.outputs)}"
                )
                continue
            for v in sorted(baseline.outputs):
                if not _outputs_equal(baseline.outputs[v], result.outputs[v]):
                    report.mismatches.append(
                        f"node {v} output: fault-free="
                        f"{baseline.outputs[v]!r} "
                        f"{engine_name}={result.outputs[v]!r}"
                    )
        reports.append(report)
    return reports


def _diff_native_resilient(
    point: dict,
    engines: Sequence["str | Engine"],
    engine_names: tuple[str, ...],
    fault_plan: "str | object",
) -> EngineDiff:
    """Engine-vs-engine comparison for :data:`NATIVE_RESILIENT` entries.

    The first engine's faulty run is the baseline; every other backend
    must reproduce its outputs, rounds, bit totals and full metrics —
    fault counters included — under the same seeded plan.  Runs attach
    a metrics observer so per-behaviour adversary counters are part of
    the comparison surface.
    """
    from ..obs import MetricsCollector

    name = point["algorithm"]
    report = EngineDiff(label=f"byzantine:{name}", engines=engine_names)
    results: dict[str, RunResult] = {}
    for engine, engine_name in zip(engines, engine_names):
        spec = catalog_factory(dict(point))
        result, _ = run_spec(
            spec, engine, fault_plan=fault_plan, observer=MetricsCollector()
        )
        results[engine_name] = result
        report.rounds[engine_name] = result.rounds
        report.total_message_bits[engine_name] = result.total_message_bits
    baseline_name = engine_names[0]
    baseline = results[baseline_name]
    for engine_name in engine_names[1:]:
        other = results[engine_name]
        if sorted(other.outputs) != sorted(baseline.outputs):
            report.mismatches.append(
                f"output nodes differ: {baseline_name}="
                f"{sorted(baseline.outputs)} "
                f"{engine_name}={sorted(other.outputs)}"
            )
            continue
        for v in sorted(baseline.outputs):
            if not _outputs_equal(baseline.outputs[v], other.outputs[v]):
                report.mismatches.append(
                    f"node {v} output: {baseline_name}="
                    f"{baseline.outputs[v]!r} "
                    f"{engine_name}={other.outputs[v]!r}"
                )
        report.mismatches.extend(
            _metrics_mismatches(engine_name, baseline.metrics, other.metrics)
        )
    return report


def _metrics_mismatches(name: str, base, other) -> list[str]:
    """Compare two ``RunMetrics`` across backends.

    Broadcasts are counted in different slots by design (the reference
    engine expands them to unicasts), so per-slot message counts are
    compared as totals; bit volumes, per-node load profiles, counters
    and fault totals must match exactly.
    """
    issues: list[str] = []
    if base is None or other is None:
        if (base is None) != (other is None):
            issues.append(f"metrics presence: reference={base} {name}={other}")
        return issues
    for field_name in ("rounds", "message_bits", "bulk_bits"):
        a, b = getattr(base, field_name), getattr(other, field_name)
        if a != b:
            issues.append(f"metrics.{field_name}: reference={a} {name}={b}")
    total_a = base.unicast_messages + base.broadcast_messages
    total_b = other.unicast_messages + other.broadcast_messages
    if total_a != total_b or base.bulk_messages != other.bulk_messages:
        issues.append(
            f"metrics message totals: reference="
            f"{(total_a, base.bulk_messages)} {name}="
            f"{(total_b, other.bulk_messages)}"
        )
    if tuple(base.sent_bits) != tuple(other.sent_bits) or tuple(
        base.received_bits
    ) != tuple(other.received_bits):
        issues.append(f"metrics per-node load profile differs on {name}")
    if tuple(base.counters) != tuple(other.counters):
        issues.append(f"metrics counters differ on {name}")
    if dict(base.faults) != dict(other.faults):
        issues.append(
            f"metrics.faults: reference={base.faults} {name}={other.faults}"
        )
    for ra, rb in zip(base.per_round, other.per_round):
        if (
            ra.message_bits != rb.message_bits
            or ra.bulk_bits != rb.bulk_bits
            or ra.messages != rb.messages
            or ra.max_load_bits != rb.max_load_bits
            or ra.faults != rb.faults
        ):
            issues.append(
                f"metrics round {ra.round}: reference={ra.to_dict()} "
                f"{name}={rb.to_dict()}"
            )
            break
    return issues


#: Columnar-ported entries safe to diff *under an active fault plan*:
#: their outputs depend on individual deliveries but the protocol has no
#: multi-round reassembly that a dropped chunk would turn into an error
#: (chunked collectives raise on loss in both engines, but the raised
#: error is not a comparable output).
COLUMNAR_FAULT_CATALOG: tuple[str, ...] = ("fanout", "fanout_work")

#: The default faulty legs of :func:`diff_columnar`.  The first plan
#: rewrites and buffers messages (corruption, duplicates); the second
#: can only lose them, which the columnar engine decides as a keep mask
#: over its message columns.  Its seed makes every kind in it fire on
#: the fault catalog's default configs.
COLUMNAR_FAULT_PLANS: tuple[str, ...] = (
    "drop=0.2,corrupt=0.1,duplicate=0.1,seed=3",
    "drop=0.2,link=0.05,crash=0.05,restart=2,seed=1",
)


def _fault_leg_label(spec: "str | object") -> str:
    """``"omission"`` for a plan that can only lose messages, else
    ``"faulty"``."""
    from ..faults import resolve_fault_plan

    plan = resolve_fault_plan(spec)
    rewrites = plan.corrupt_rate or plan.duplicate_rate or (
        plan.byzantine_active
        and {"equivocate", "forge"} & set(plan.byzantine_behaviours())
    )
    return "faulty" if rewrites else "omission"


def _columnar_gate_engine(check: str, shard: "int | None"):
    """The columnar engine one ``diff_columnar`` axis point runs.

    ``shard=None`` is the classic single-instance engine; a shard count
    builds a shard-parallel engine on inline shards with the pickled
    transport, so every gate point exercises the full shard codec
    without paying a process fork per (entry, check, shards) cell —
    process-executor parity has its own dedicated tests.
    """
    from .base import resolve_engine
    from .columnar import ColumnarEngine

    if shard is None:
        return resolve_engine("columnar", check=check)
    return ColumnarEngine(
        check=check, shards=shard, executor="inline", transport="pickle"
    )


def diff_columnar(
    names: Sequence[str] | None = None,
    config: dict | None = None,
    *,
    fault_plan: "str | object | Sequence" = COLUMNAR_FAULT_PLANS,
    shards: "Sequence[int | None]" = (None,),
) -> list[EngineDiff]:
    """The columnar correctness gate.

    For every columnar-ported catalog entry, runs the reference and
    columnar backends at **every** check level and compares outputs,
    rounds, bit totals and the collected :class:`~repro.obs.RunMetrics`
    (bit-for-bit per round).  Entries in :data:`COLUMNAR_FAULT_CATALOG`
    are additionally compared under ``fault_plan`` — one plan or a
    sequence of plans, one faulty leg each, labelled ``@omission`` for
    a plan that can only lose messages and ``@faulty`` otherwise — and
    the metrics comparison doubles as transcript-level accounting
    parity.

    ``shards`` adds a shard-parallel axis: every ``(entry, check)``
    cell — the faulty leg included — is repeated per listed shard count
    (``None`` = classic single-instance), and each must stay
    bit-identical to the reference engine.
    """
    from .base import CHECK_LEVELS, resolve_engine

    legs = (
        list(fault_plan)
        if isinstance(fault_plan, (list, tuple))
        else [fault_plan]
    )
    reports: list[EngineDiff] = []
    for name in names if names is not None else sorted(COLUMNAR_CATALOG):
        point = dict(config or {})
        point["algorithm"] = name
        for shard in shards:
            suffix = "" if shard is None else f"@shards={shard}"
            for check in CHECK_LEVELS:
                engines = (
                    resolve_engine("reference", check=check),
                    _columnar_gate_engine(check, shard),
                )
                report = diff_engines(
                    catalog_factory,
                    point,
                    engines=engines,
                    label=f"{name}@{check}{suffix}",
                )
                results = {
                    e.name: run_spec(catalog_factory(dict(point)), e)[0]
                    for e in engines
                }
                report.mismatches.extend(
                    _metrics_mismatches(
                        "columnar",
                        results["reference"].metrics,
                        results["columnar"].metrics,
                    )
                )
                reports.append(report)
            if name not in COLUMNAR_FAULT_CATALOG:
                continue
            for leg in legs:
                report = EngineDiff(
                    label=f"{name}@{_fault_leg_label(leg)}{suffix}",
                    engines=("reference", "columnar"),
                )
                faulty = {}
                for label, engine in (
                    ("reference", "reference"),
                    ("columnar", _columnar_gate_engine("bandwidth", shard)),
                ):
                    result, _ = run_spec(
                        catalog_factory(dict(point)),
                        engine,
                        fault_plan=leg,
                    )
                    faulty[label] = result
                    report.rounds[label] = result.rounds
                    report.total_message_bits[label] = (
                        result.total_message_bits
                    )
                base, other = faulty["reference"], faulty["columnar"]
                for v in sorted(base.outputs):
                    if not _outputs_equal(base.outputs[v], other.outputs[v]):
                        report.mismatches.append(
                            f"node {v} faulty output: reference="
                            f"{base.outputs[v]!r} columnar={other.outputs[v]!r}"
                        )
                if base.received_bits != other.received_bits:
                    report.mismatches.append("faulty received_bits differ")
                report.mismatches.extend(
                    _metrics_mismatches("columnar", base.metrics, other.metrics)
                )
                reports.append(report)
    return reports


def diff_catalog(
    names: Sequence[str] | None = None,
    config: dict | None = None,
    engines: Sequence["str | Engine"] = ("reference", "fast"),
    symbolic: bool = False,
) -> list[EngineDiff]:
    """Differentially check every named catalog algorithm.

    ``config`` supplies shared overrides (``n``, ``seed``, ...); each
    algorithm keeps its own defaults otherwise.  ``symbolic=True`` adds
    each entry's closed-form cost model as an extra comparison row (see
    :func:`diff_engines`).
    """
    reports = []
    for name in names if names is not None else sorted(CATALOG):
        point = dict(config or {})
        point["algorithm"] = name
        reports.append(
            diff_engines(
                catalog_factory,
                point,
                engines=engines,
                label=name,
                symbolic=symbolic,
            )
        )
    return reports
