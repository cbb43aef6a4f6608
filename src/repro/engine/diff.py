"""Differential checking between execution backends.

The reference engine is the semantic ground truth; every other backend
must produce identical outputs, rounds, bits and
:class:`~repro.obs.RunMetrics` on valid programs.  This module provides

* :data:`CATALOG` — named spec builders covering the library's
  algorithm families (broadcast/gather, BFS, APSP, matrix
  multiplication, k-dominating set, k-vertex cover, subgraph detection,
  sorting, k-independent set), each parameterised by a config dict with
  ``n``/``seed``/problem parameters;
* :func:`catalog_factory` — a picklable sweep factory dispatching on
  ``config["algorithm"]`` (usable directly with
  :func:`~repro.engine.pool.run_sweep`, and the source of the
  catalog workloads in :mod:`repro.bench` and ``perfbench/``);
* :func:`run_matrix` — the one differential gate: catalog entry ×
  engine column × fault plan, with an optional closed-form row, each
  cell run once and checked by :func:`compare` against its row's
  baseline.  Under a fault plan, the Byzantine protocols and the
  fan-out entries run as they are, and the other
  :data:`RESILIENT_CATALOG` entries run wrapped in the
  :func:`repro.faults.resilient` ack/retransmit layer, which must also
  reproduce the fault-free outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from ..clique.errors import CliqueError, did_you_mean
from ..clique.network import RunResult, _outputs_equal
from .base import Engine
from .pool import RunSpec, run_spec
from .spec import ExecutionSpec

__all__ = [
    "CATALOG",
    "COLUMNAR_CATALOG",
    "COLUMNAR_FAULT_CATALOG",
    "COLUMNAR_FAULT_PLANS",
    "COST_DECLARATIONS",
    "Cell",
    "NATIVE_RESILIENT",
    "RESILIENT_CATALOG",
    "algorithm",
    "catalog_factory",
    "catalog_k",
    "compare",
    "run_matrix",
]


# ---------------------------------------------------------------------------
# Algorithm catalog: name -> (config -> RunSpec)
# ---------------------------------------------------------------------------

#: Named spec builders: algorithm name -> (config -> RunSpec).  Populated
#: by the :func:`algorithm` decorator below.
CATALOG: dict[str, Callable[[dict], RunSpec]] = {}

#: Catalog entries whose :class:`~repro.engine.columnar.DualProgram`
#: carries a columnar form, i.e. the entries the columnar engine column runs.
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
    :data:`COLUMNAR_CATALOG` so the columnar column of
    :func:`run_matrix` picks it up automatically.

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


#: The ``k`` of the parameterised entries: ``(default, least valid k)``.
_K_RANGE = {"kds": (2, 1), "kis": (3, 1), "kvc": (3, 0)}


def catalog_k(name: str, config: dict) -> int:
    """``config["k"]`` of catalog entry ``name`` (or its default), checked.

    The one guard for the catalog entries and their cost models: kds
    and kis need ``k >= 1`` (the label scheme takes a ``k``-th root),
    kvc ``k >= 0``.
    """
    default, least = _K_RANGE[name]
    k = int(config.get("k", default))
    if k < least:
        raise CliqueError(f"{name} needs k >= {least}, got k={k}")
    return k


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

    k = catalog_k("kds", config)

    def prog(node):
        return (yield from k_dominating_set(node, k))

    return RunSpec(program=prog, node_input=_graph(config), bandwidth_multiplier=2)


@algorithm("kvc")
def _spec_kvc(config: dict) -> RunSpec:
    """Theorem 11: k-vertex cover in O(k) rounds."""
    from ..algorithms import k_vertex_cover

    k = catalog_k("kvc", config)

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

    k = catalog_k("kis", config)

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

    The compute-heavy stress entry — per-node hidden uint64 lane state
    mixed ``passes`` times per round (program compute that dominates
    delivery), digests unicast to the ``min(8, n-1)`` next ring neighbours, and an
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
    :func:`~repro.engine.pool.run_sweep` from any process.  A true
    ``config["resilient"]`` wraps the program in
    :func:`repro.faults.resilient`; the key is part of the config, so
    wrapped and unwrapped runs of a point cache apart.
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
    spec = builder(config)
    wrap = config.get("resilient", False)
    if wrap is True:
        from ..faults import resilient

        spec.program = resilient(spec.program)
    elif wrap is not False:
        raise CliqueError(f"catalog config 'resilient' must be a bool, got {wrap!r}")
    return spec


# ---------------------------------------------------------------------------
# The differential matrix
# ---------------------------------------------------------------------------

#: Catalog entries that tolerate faults natively (Byzantine broadcast
#: protocols).  Under a fault plan they run unwrapped and are compared
#: engine against engine only: their outputs legitimately depend on the
#: injected adversary, so "same as fault-free" is not the contract;
#: "identical on every backend" is.
NATIVE_RESILIENT: frozenset[str] = frozenset({"bracha", "dolev"})

#: Catalog entries that join faulty legs: the :data:`NATIVE_RESILIENT`
#: protocols, plus pure message-passing entries with no cost-model bulk
#: channel that run wrapped in :func:`repro.faults.resilient` (the
#: wrapper's 3-bit frame header lives inside the per-link budget, so
#: bulk sends are rejected).
RESILIENT_CATALOG: tuple[str, ...] = ("bfs", "broadcast", "kvc", "bracha", "dolev")

#: Columnar-ported entries that join every faulty leg unwrapped: their
#: outputs depend on individual deliveries, but the protocol has no
#: multi-round reassembly that a dropped chunk would turn into an error.
COLUMNAR_FAULT_CATALOG: tuple[str, ...] = ("fanout", "fanout_work")

# Why the rest of the catalog sits out every faulty leg (each entry was
# run at its default config under a drop-only, a corrupting and a
# crashing plan, unwrapped and wrapped):
#
# * apsp, matmul, sorting: their chunked all-broadcast reassembly raises
#   ProtocolViolation on the first lost chunk; wrapped, the retransmit
#   window pushes them past the 1024-round limit.
# * kds, kis, subgraph: the same reassembly error unwrapped; wrapped,
#   their bulk-channel sends are rejected by the wrapper.
# * routing: a lost relay chunk raises ProtocolViolation ("unexpected
#   chunk"); wrapped, the frame header leaves fewer bits per link than
#   relay routing needs.
#
# A raised error is not a comparable output, so none of them has a
# faulty-leg contract.  The wrapped entries (bfs, broadcast, kvc) join
# only plans that just drop messages: the resilient wrapper masks loss, not
# corruption, duplication, dead links, crashes or Byzantine rewrites
# (under those, broadcast and kvc raise and bfs returns other outputs).

#: Two faulty legs that make every fault kind fire on the fault
#: catalog's default configs.  The first plan rewrites and buffers
#: messages (corruption, duplicates); the second can only lose them,
#: which the columnar engine decides as a keep mask over its message
#: columns.
COLUMNAR_FAULT_PLANS: tuple[str, ...] = (
    "drop=0.2,corrupt=0.1,duplicate=0.1,seed=3",
    "drop=0.2,link=0.05,crash=0.05,restart=2,seed=1",
)


@dataclass
class Cell:
    """One run of the differential matrix and its verdict.

    ``column`` names the engine column (``"reference@full"``,
    ``"columnar@bandwidth"``) or ``"symbolic"`` for the closed-form
    row; ``plan`` is the fault plan it ran under (``None`` = fault-free).
    ``wrapped`` marks a run of the program wrapped in
    :func:`repro.faults.resilient`.  ``baseline`` is the column this
    cell was compared against (``None`` for a baseline itself).
    """

    algorithm: str
    column: str
    plan: "str | object | None" = None
    wrapped: bool = False
    result: RunResult | None = None
    baseline: str | None = None
    mismatches: list[str] = field(default_factory=list)

    @property
    def leg(self) -> str:
        """``"fault-free"``, ``"omission"`` (a plan that can only lose
        messages), ``"faulty"`` (corruption, duplicates) or
        ``"byzantine"``."""
        from ..faults import resolve_fault_plan

        plan = resolve_fault_plan(self.plan)
        if plan is None:
            return "fault-free"
        if plan.byzantine_active:
            return "byzantine"
        return "faulty" if plan.corrupt_rate or plan.duplicate_rate else "omission"

    @property
    def label(self) -> str:
        prefix = "resilient:" if self.wrapped else ""
        suffix = "" if self.plan is None else f"[{self.plan}]"
        return f"{prefix}{self.algorithm}@{self.leg}{suffix}"

    @property
    def ok(self) -> bool:
        """True when the cell matched everything it was compared with."""
        return not self.mismatches

    def summary(self) -> str:
        """One-line human-readable verdict."""
        head = f"{self.label} {self.column}"
        if self.baseline is not None:
            head += f" vs {self.baseline}"
        if self.mismatches:
            return f"{head}: MISMATCH — " + "; ".join(self.mismatches)
        if self.result is None:
            return f"{head}: agree"
        return (
            f"{head}: {'agree' if self.baseline else 'baseline'} "
            f"({self.result.rounds} rounds, "
            f"{self.result.total_message_bits} message bits)"
        )


def _output_mismatches(base: Cell, other: Cell) -> list[str]:
    """Node-by-node output comparison (numpy-tolerant equality)."""
    a, b = base.result.outputs, other.result.outputs
    x, y = base.column, other.column
    if sorted(a) != sorted(b):
        return [f"output nodes: {x}={sorted(a)} {y}={sorted(b)}"]
    return [
        f"node {v} output: {x}={a[v]!r} {y}={b[v]!r}"
        for v in sorted(a)
        if not _outputs_equal(a[v], b[v])
    ]


def compare(base: Cell, other: Cell) -> list[str]:
    """Everything two runs of one matrix row must agree on.

    Outputs node by node; rounds, message and bulk bits; the per-node
    sent/received bits and counters; and the full
    :class:`~repro.obs.RunMetrics` — every field but the engine name and
    phase timings, per round included, fault counters and per-round
    fault deltas included.  Broadcasts are counted in different slots by
    design (the reference engine expands them to unicasts), so message
    counts are compared as totals.  Each mismatch names both columns.
    """
    issues = _output_mismatches(base, other)
    x, y = base.column, other.column
    a, b = base.result, other.result
    for name in (
        "rounds",
        "total_message_bits",
        "bulk_bits",
        "sent_bits",
        "received_bits",
        "counters",
    ):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            issues.append(f"{name}: {x}={va} {y}={vb}")
    ma, mb = a.metrics, b.metrics
    if ma is None or mb is None:
        if (ma is None) != (mb is None):
            issues.append(f"metrics: {x}={ma is not None} {y}={mb is not None}")
        return issues
    for name in (
        "n",
        "bandwidth",
        "rounds",
        "message_bits",
        "bulk_bits",
        "messages",
        "bulk_messages",
        "sent_bits",
        "received_bits",
        "counters",
        "link_bits",
        "faults",
    ):
        va, vb = getattr(ma, name), getattr(mb, name)
        if va != vb:
            issues.append(f"metrics.{name}: {x}={va} {y}={vb}")
    if len(ma.per_round) != len(mb.per_round):
        issues.append(
            f"metrics rounds recorded: {x}={len(ma.per_round)} "
            f"{y}={len(mb.per_round)}"
        )
    for ra, rb in zip(ma.per_round, mb.per_round):
        if _round_view(ra) != _round_view(rb):
            issues.append(
                f"metrics round {ra.round}: {x}={ra.to_dict()} {y}={rb.to_dict()}"
            )
            break
    return issues


def _round_view(r) -> tuple:
    """A :class:`~repro.obs.RoundMetrics` with message slots as totals."""
    return (
        r.round,
        r.messages,
        r.bulk_messages,
        r.message_bits,
        r.bulk_bits,
        r.max_load_node,
        r.max_load_bits,
        r.faults,
    )


def _column(engine: "str | Engine") -> tuple[str, Engine]:
    """An engine column: its label and its resolved engine."""
    from .base import resolve_engine

    engine = resolve_engine(engine)
    return f"{engine.name}@{engine.check}", engine


def _joins(name: str, plan: "str | object | None") -> str | None:
    """How catalog entry ``name`` joins the leg of ``plan``: ``"native"``
    (as it is), ``"wrapped"`` (in :func:`repro.faults.resilient`), or
    ``None`` (it sits out; see the notes above)."""
    from ..faults import resolve_fault_plan

    plan = resolve_fault_plan(plan)
    if plan is None or name in NATIVE_RESILIENT or name in COLUMNAR_FAULT_CATALOG:
        return "native"
    drop_only = not plan.byzantine_active and not (
        plan.corrupt_rate
        or plan.duplicate_rate
        or plan.link_failure_rate
        or plan.crash_rate
    )
    return "wrapped" if name in RESILIENT_CATALOG and drop_only else None


def _run_row(
    name: str,
    point: dict,
    columns: list[tuple[str, Engine]],
    plan: "str | object | None",
    wrapped: bool = False,
) -> Iterator[Cell]:
    """Run one entry on each column that can run it under one plan.

    Lazy, so a caller that needs only the baseline runs only that.  The
    first such column is the row's baseline; every later cell is
    compared against it.  The columnar engine runs only entries that
    carry an array form (:class:`~repro.engine.columnar.DualProgram`).
    """
    from .columnar import DualProgram

    if wrapped:
        point = {**point, "resilient": True}
    base = None
    for label, engine in columns:
        spec = catalog_factory(dict(point))
        if engine.name == "columnar" and not isinstance(spec.program, DualProgram):
            continue
        execution = ExecutionSpec(engine=engine, fault_plan=plan)
        result, _ = run_spec(spec, execution=execution)
        cell = Cell(name, label, plan, wrapped, result)
        if base is None:
            base = cell
        else:
            cell.baseline = base.column
            cell.mismatches = compare(base, cell)
        yield cell


def run_matrix(
    names: Sequence[str] | None = None,
    config: dict | None = None,
    *,
    engines: Sequence["str | Engine"] = ("reference", "fast"),
    fault_plan: "str | object | Sequence | None" = None,
    symbolic: bool = False,
) -> list[Cell]:
    """The differential matrix: catalog entry × engine column × fault plan.

    ``names`` defaults to the whole :data:`CATALOG`; ``config`` supplies
    shared overrides (``n``, ``seed``, ...).  ``engines`` are the
    columns — names or :class:`Engine` instances, so each check level
    is a column of its own.  The first column that
    can run an entry is the baseline of its row; every other cell runs
    once and is checked against it by :func:`compare`.

    ``fault_plan`` is one plan or a sequence of plans; ``None`` is the
    fault-free leg.  Under a plan, :data:`NATIVE_RESILIENT` and
    :data:`COLUMNAR_FAULT_CATALOG` entries run unwrapped; the other
    :data:`RESILIENT_CATALOG` entries join drop-only plans wrapped in
    :func:`repro.faults.resilient` and must also reproduce the outputs
    of the fault-free baseline; the rest of the catalog sits out.

    ``symbolic=True`` adds a ``"symbolic"`` row per entry: the declared
    :class:`~repro.analysis.symbolic.CostModel` evaluated at the same
    point must match the fault-free baseline's rounds and bits exactly
    (through :func:`repro.analysis.symbolic._compare`).  The model's
    ``domain`` pins (e.g. ``scheme="lenzen"`` for routing) are merged
    into the config first, so every column runs the instance the closed
    form describes.

    Returns every cell, baselines included, in run order.
    """
    columns = [_column(e) for e in engines]
    plans = list(fault_plan) if isinstance(fault_plan, (list, tuple)) else [fault_plan]
    plans.sort(key=lambda p: p is not None)
    cells: list[Cell] = []
    for name in names if names is not None else sorted(CATALOG):
        point = {**(config or {}), "algorithm": name}
        model = None
        if symbolic:
            from ..analysis.symbolic import get_cost_model

            model = get_cost_model(COST_DECLARATIONS.get(name, name))
            point = model.config(point)
        legs = [(plan, _joins(name, plan)) for plan in plans]
        legs = [(plan, joins) for plan, joins in legs if joins]
        free = None  # the fault-free baseline, run at most once
        if None not in plans and (
            model or any(joins == "wrapped" for _, joins in legs)
        ):
            free = next(_run_row(name, point, columns, None), None)
            cells += [free] if free else []
        for plan, joins in legs:
            row = list(_run_row(name, point, columns, plan, joins == "wrapped"))
            if plan is None:
                free = row[0] if row else None
            elif joins == "wrapped" and free:
                for cell in row:
                    cell.mismatches += _output_mismatches(free, cell)
            cells += row
        if model and free:
            cells.append(_symbolic_cell(name, model, point, free))
    return cells


def _symbolic_cell(name: str, model, point: dict, free: Cell) -> Cell:
    """The closed-form row of one entry, checked against its baseline."""
    from ..analysis.symbolic import CostPoint, _compare

    cell = Cell(name, "symbolic", baseline=free.column)
    try:
        predicted = model.evaluate(point)
    except CliqueError as exc:
        cell.mismatches.append(f"closed form: {exc}")
        return cell
    measured = CostPoint.from_metrics(free.result.metrics)
    cell.mismatches = _compare(predicted, measured)
    return cell
