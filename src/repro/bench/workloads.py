"""The benchmark suite registry: stable, named engine workloads.

Each :class:`Workload` names one hot path of the simulator — all-to-all
message fan-out, the routing and sorting primitives, the diff-catalog
algorithms the paper's theorems are about (``kds``/``kvc``/``matmul``),
cached vs. uncached sweeps, fault-plan and metrics-collector overhead —
with pinned seeds and sizes so repeated runs measure the same work.

Workload *names are an interface*: ``BENCH_*.json`` artifacts and the
committed ``benchmarks/baseline.json`` are keyed by them, so renaming or
re-parameterising a workload invalidates the comparison history (the
ratchet reports it as ``added``/``removed`` rather than silently mixing
incomparable timings).

The runners reuse the existing execution stack — ``run_spec`` over the
diff catalog, ``run_sweep`` with the worker pool, ``RunCache`` — instead
of re-implementing timing loops, so a benchmark exercises exactly the
code paths real experiments use.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable

from ..clique.errors import CliqueError

__all__ = [
    "SUITE",
    "Workload",
    "all_to_all_chatter",
    "get_workloads",
    "register_workload",
]


def all_to_all_chatter(n: int, rounds: int, *, execution: Any = None):
    """The canonical fan-out microbenchmark: every node sends one bit to
    every other node, ``rounds`` times (also used by the throughput
    acceptance gates in ``benchmarks/test_engine_throughput.py``)."""
    from ..clique.bits import BitString
    from ..clique.network import CongestedClique

    def prog(node):
        payload = BitString(node.id % 2, 1)
        for _ in range(rounds):
            node.send_to_all(payload)
            yield
        return None

    return CongestedClique(n).run(prog, execution=execution)


def _info_from_result(result) -> dict:
    """The deterministic payload recorded next to a workload's timing.

    Wall-clock varies run to run; these fields must not — the
    determinism test in ``tests/bench`` asserts exact equality across
    repeated suite runs.
    """
    metrics = result.metrics
    if metrics is not None:
        return {
            "rounds": metrics.rounds,
            "total_bits": metrics.total_bits,
        }
    return {
        "rounds": result.rounds,
        "total_bits": result.total_message_bits + result.bulk_bits,
    }


def _info_with_faults(result, params: dict) -> dict:
    """:func:`_info_from_result`, plus the injected-fault count when the
    workload's execution carries a fault plan."""
    info = _info_from_result(result)
    metrics = result.metrics
    if params["execution"].get("fault_plan") is not None and metrics is not None:
        info["faults"] = metrics.total_faults
    return info


def _run_fanout(params: dict, ctx: dict) -> dict:
    result = all_to_all_chatter(
        params["n"], params["rounds"], execution=params["execution"]
    )
    return _info_with_faults(result, params)


def _run_relay_route(params: dict, ctx: dict) -> dict:
    from ..clique.bits import BitString
    from ..clique.network import CongestedClique
    from ..clique.routing import route

    n = params["n"]
    payload = BitString.zeros(params["payload_bits"])

    def prog(node):
        flows = {(node.id + 1) % n: payload, (node.id + 5) % n: payload}
        got = yield from route(node, flows, scheme="relay")
        return sum(len(b) for b in got.values())

    clique = CongestedClique(n, bandwidth_multiplier=2, max_rounds=10**5)
    return _info_from_result(clique.run(prog))


def _run_bool_codec(params: dict, ctx: dict) -> dict:
    import numpy as np

    from ..algorithms.common import decode_bool_row, encode_bool_row
    from ..problems import generators as gen

    rng = gen.rng_from(params["seed"])
    row = rng.random(params["width"]) < 0.5
    checksum = 0
    for _ in range(params["iters"]):
        back = decode_bool_row(encode_bool_row(row), row.size)
        checksum ^= int(np.count_nonzero(back))
    return {
        "rounds": 0,
        "total_bits": params["width"] * params["iters"],
        "checksum": checksum,
    }


def _run_catalog(params: dict, ctx: dict) -> dict:
    from ..engine.diff import catalog_factory
    from ..engine.pool import run_spec

    result, _ = run_spec(
        catalog_factory(dict(params["config"])), execution=params["execution"]
    )
    return _info_with_faults(result, params)


def _sweep_grid(params: dict) -> list[dict]:
    return [
        {"algorithm": params["algorithm"], "n": n, "seed": seed}
        for n in params["ns"]
        for seed in range(params["seeds"])
    ]


def _run_sweep_workload(params: dict, ctx: dict) -> dict:
    from ..engine import run_sweep
    from ..engine.diff import catalog_factory

    outcomes = run_sweep(
        catalog_factory,
        _sweep_grid(params),
        workers=params.get("workers", 1),
        execution=params["execution"],
        cache=ctx.get("cache"),
    )
    failed = [o for o in outcomes if o.failed]
    if failed:  # pragma: no cover - pinned grids never fail
        raise CliqueError(f"benchmark sweep had {len(failed)} failed points")
    return {
        "rounds": sum(o.result.rounds for o in outcomes),
        "total_bits": sum(
            o.result.total_message_bits + o.result.bulk_bits
            for o in outcomes
        ),
        "cache_hits": sum(1 for o in outcomes if o.from_cache),
    }


def _setup_pool_shutdown(params: dict) -> dict:
    """The persistent worker pool outlives each timed call by design
    (that amortisation is what the workload measures); shut it down when
    the workload finishes so later workloads time a quiet process."""
    from ..engine import shutdown_pool

    return {"cleanup": shutdown_pool}


def _run_bulk_uint_codec(params: dict, ctx: dict) -> dict:
    import numpy as np

    from ..clique.bits import decode_uint_array, encode_uint_array
    from ..problems import generators as gen

    width = params["width"]
    rng = gen.rng_from(params["seed"])
    values = rng.integers(0, 1 << width, size=params["count"], dtype=np.uint64)
    expected = [int(v) for v in values]
    checksum = 0
    for _ in range(params["iters"]):
        bits = encode_uint_array(values, width)
        back = decode_uint_array(bits, len(expected), width)
        if back != expected:  # pragma: no cover - parity is property-tested
            raise CliqueError("bulk codec round trip diverged")
        checksum ^= back[0] ^ back[-1]
    return {
        "rounds": 0,
        "total_bits": params["count"] * width * params["iters"],
        "checksum": checksum,
    }


def _setup_service(params: dict) -> dict:
    """Start a throwaway ``repro serve`` daemon with a warm cache.

    The daemon, its socket and its cache live in a temp directory; one
    priming request per grid point is issued here (the cold path), so
    the timed region measures warm request latency through the full
    client/socket/server/cache stack.
    """
    import os

    from ..service import ReproServer, ServiceClient

    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-service-")
    server = ReproServer(
        os.path.join(tmp.name, "serve.sock"),
        workers=2,
        cache_root=os.path.join(tmp.name, "cache"),
    )
    server.start()
    client = ServiceClient(server.socket_path, timeout=120.0)
    client.wait_until_ready()
    for seed in range(params["seeds"]):
        client.run(params["algorithm"], {"n": params["n"], "seed": seed})

    def cleanup() -> None:
        server.stop()
        tmp.cleanup()

    return {"client": client, "cleanup": cleanup}


def _run_service_warm(params: dict, ctx: dict) -> dict:
    """One warm pass over the primed grid through the service client."""
    client = ctx["client"]
    rounds = 0
    total_bits = 0
    cache_hits = 0
    for seed in range(params["seeds"]):
        reply = client.run(params["algorithm"], {"n": params["n"], "seed": seed})
        rounds += reply["rounds"]
        total_bits += reply["total_message_bits"] + reply["bulk_bits"]
        cache_hits += 1 if reply["cached"] else 0
    return {
        "rounds": rounds,
        "total_bits": total_bits,
        "cache_hits": cache_hits,
    }


def _setup_warm_cache(params: dict) -> dict:
    """Pre-warm a throwaway :class:`RunCache` so the timed runs measure
    the hit path (lookup + deserialise), not first execution."""
    from ..engine import RunCache, run_sweep
    from ..engine.diff import catalog_factory

    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
    cache = RunCache(tmp.name)
    run_sweep(
        catalog_factory,
        _sweep_grid(params),
        workers=1,
        execution=params["execution"],
        cache=cache,
    )
    return {"cache": cache, "cleanup": tmp.cleanup}


@dataclass(frozen=True)
class Workload:
    """One named benchmark: a timed runner plus pinned parameters.

    ``run(params, ctx)`` executes one timed iteration and returns the
    deterministic info payload recorded in the artifact.  ``setup`` (if
    any) builds ``ctx`` once per workload, outside the timed region; a
    ``"cleanup"`` callable in ``ctx`` is invoked when the workload is
    done.  ``quick_params`` are merged over ``params`` in quick mode.
    """

    name: str
    description: str
    run: Callable[[dict, dict], dict]
    params: dict = field(default_factory=dict)
    quick_params: dict = field(default_factory=dict)
    setup: Callable[[dict], dict] | None = None
    #: Per-workload wall-clock budget, seconds (repeats stop early once
    #: the cumulative measurement time exceeds it).
    time_budget: float = 20.0
    quick_time_budget: float = 5.0

    def resolved_params(self, quick: bool) -> dict:
        merged = dict(self.params)
        if quick:
            merged.update(self.quick_params)
        return merged

    def resolved_budget(self, quick: bool) -> float:
        return self.quick_time_budget if quick else self.time_budget


#: The suite: workload name -> :class:`Workload`, in registration order.
SUITE: dict[str, Workload] = {}


def register_workload(workload: Workload) -> Workload:
    """Add one workload to :data:`SUITE` (names must be unique)."""
    if workload.name in SUITE:
        raise CliqueError(f"workload {workload.name!r} already registered")
    SUITE[workload.name] = workload
    return workload


def get_workloads(names: "list[str] | None" = None) -> list[Workload]:
    """The selected workloads, in suite order; unknown names raise."""
    if names is None:
        return list(SUITE.values())
    unknown = [name for name in names if name not in SUITE]
    if unknown:
        raise CliqueError(f"unknown workload(s) {unknown}; known: {sorted(SUITE)}")
    return [SUITE[name] for name in names]


#: The execution most workloads run under (the batch engine at its
#: default check level, spelled out so the workload pins it).
_FAST = {"engine": "fast", "check": "bandwidth"}

_BYZANTINE_PLAN = "byzantine=equivocate+selective,f=1,seed=7,byz_rate=0.5"


register_workload(
    Workload(
        name="fanout/reference",
        description="all-to-all 1-bit fan-out, reference engine",
        run=_run_fanout,
        params={"execution": {"engine": "reference"}, "n": 48, "rounds": 8},
        quick_params={"n": 24, "rounds": 4},
    )
)
register_workload(
    Workload(
        name="fanout/fast",
        description="all-to-all 1-bit fan-out, fast engine (metrics on)",
        run=_run_fanout,
        params={"execution": _FAST, "n": 48, "rounds": 8},
        quick_params={"n": 24, "rounds": 4},
    )
)
register_workload(
    Workload(
        name="fanout/fast-noobs",
        description="all-to-all fan-out, fast engine, observer=False",
        run=_run_fanout,
        params={
            "execution": {**_FAST, "observer": False},
            "n": 48,
            "rounds": 8,
        },
        quick_params={"n": 24, "rounds": 4},
    )
)
register_workload(
    Workload(
        name="route/relay",
        description="store-and-forward relay routing, 2 flows per node",
        run=_run_relay_route,
        params={"n": 16, "payload_bits": 512},
        quick_params={"payload_bits": 256},
    )
)
register_workload(
    Workload(
        name="codec/bool-row",
        description="boolean-row bit packing round trip",
        run=_run_bool_codec,
        params={"width": 4096, "iters": 200, "seed": 1},
        quick_params={"iters": 50},
    )
)
register_workload(
    Workload(
        name="catalog/kds",
        description="Theorem 9 k-dominating set (diff catalog, fast engine)",
        run=_run_catalog,
        params={
            "config": {"algorithm": "kds", "n": 32, "seed": 0, "k": 2},
            "execution": _FAST,
        },
        quick_params={"config": {"algorithm": "kds", "n": 16, "seed": 0, "k": 2}},
    )
)
register_workload(
    Workload(
        name="catalog/kvc",
        description="Theorem 11 k-vertex cover (diff catalog, fast engine)",
        run=_run_catalog,
        params={
            "config": {"algorithm": "kvc", "n": 32, "seed": 0, "k": 3},
            "execution": _FAST,
        },
        quick_params={"config": {"algorithm": "kvc", "n": 16, "seed": 0, "k": 3}},
    )
)
register_workload(
    Workload(
        name="catalog/matmul",
        description="cube-partitioned matrix multiply (diff catalog)",
        run=_run_catalog,
        params={
            "config": {"algorithm": "matmul", "n": 24, "seed": 0},
            "execution": _FAST,
        },
        quick_params={"config": {"algorithm": "matmul", "n": 12, "seed": 0}},
    )
)
register_workload(
    Workload(
        name="catalog/sorting",
        description="PSRS distributed sorting (diff catalog, fast engine)",
        run=_run_catalog,
        params={
            "config": {"algorithm": "sorting", "n": 24, "seed": 0},
            "execution": _FAST,
        },
        quick_params={"config": {"algorithm": "sorting", "n": 12, "seed": 0}},
    )
)
register_workload(
    Workload(
        name="sweep/uncached",
        description="serial bfs sweep through run_sweep, no cache",
        run=_run_sweep_workload,
        params={
            "algorithm": "bfs",
            "ns": [12, 16],
            "seeds": 2,
            "execution": _FAST,
        },
        quick_params={"ns": [8, 12], "seeds": 1},
    )
)
register_workload(
    Workload(
        name="sweep/cached",
        description="the same bfs sweep served entirely from a warm RunCache",
        run=_run_sweep_workload,
        setup=_setup_warm_cache,
        params={
            "algorithm": "bfs",
            "ns": [12, 16],
            "seeds": 2,
            "execution": _FAST,
        },
        quick_params={"ns": [8, 12], "seeds": 1},
    )
)
register_workload(
    Workload(
        name="pool-warm-sweep",
        description="parallel bfs sweep on the persistent warm worker pool",
        run=_run_sweep_workload,
        setup=_setup_pool_shutdown,
        params={
            "algorithm": "bfs",
            "ns": [12, 16],
            "seeds": 3,
            "workers": 2,
            "execution": _FAST,
        },
        quick_params={"ns": [8, 12], "seeds": 2},
    )
)
register_workload(
    Workload(
        name="bulk-codec",
        description="bulk uint-array encode/decode round trip "
        "(encode_uint_array / decode_uint_array)",
        run=_run_bulk_uint_codec,
        params={"count": 4096, "width": 24, "iters": 100, "seed": 3},
        quick_params={"iters": 25},
    )
)
register_workload(
    Workload(
        name="service-warm-run",
        description="warm run requests through the repro serve daemon "
        "(client + socket + resident cache)",
        run=_run_service_warm,
        setup=_setup_service,
        params={"algorithm": "bfs", "n": 16, "seeds": 4},
        quick_params={"n": 12, "seeds": 2},
    )
)
register_workload(
    Workload(
        name="columnar-fanout",
        description="n=1024 evolving-broadcast fan-out on the columnar "
        "whole-round array engine",
        run=_run_catalog,
        params={
            "execution": {"engine": "columnar", "check": "bandwidth"},
            "config": {"algorithm": "fanout", "n": 1024, "rounds": 6, "seed": 0},
        },
        quick_params={
            "config": {"algorithm": "fanout", "n": 256, "rounds": 3, "seed": 0},
        },
    )
)
register_workload(
    Workload(
        name="fanout-large/fast",
        description="the same n=1024 fan-out on the fast per-message "
        "engine (columnar speedup twin)",
        run=_run_catalog,
        params={
            "execution": _FAST,
            "config": {"algorithm": "fanout", "n": 1024, "rounds": 6, "seed": 0},
        },
        quick_params={
            "config": {"algorithm": "fanout", "n": 256, "rounds": 3, "seed": 0},
        },
    )
)
register_workload(
    Workload(
        name="columnar-matmul",
        description="cube-partitioned matrix multiply via the columnar "
        "array port (diff catalog)",
        run=_run_catalog,
        params={
            "execution": {"engine": "columnar", "check": "bandwidth"},
            "config": {"algorithm": "matmul", "n": 27, "seed": 0},
        },
        quick_params={
            "config": {"algorithm": "matmul", "n": 12, "seed": 0},
        },
    )
)
register_workload(
    Workload(
        name="faults/drop-overhead",
        description="fast-engine fan-out under a deterministic drop plan "
        "(per-delivery injector cost)",
        run=_run_fanout,
        params={
            "execution": {**_FAST, "fault_plan": "drop=0.05,seed=7"},
            "n": 48,
            "rounds": 8,
        },
        quick_params={"n": 24, "rounds": 4},
    )
)
register_workload(
    Workload(
        name="bracha-broadcast",
        description="Bracha reliable broadcast, honest run "
        "(f + 5 rounds of tagged all-to-all echo/ready traffic)",
        run=_run_catalog,
        params={
            "config": {"algorithm": "bracha", "n": 48, "f": 4, "seed": 0},
            "execution": _FAST,
        },
        quick_params={"config": {"algorithm": "bracha", "n": 16, "f": 1, "seed": 0}},
    )
)
register_workload(
    Workload(
        name="byzantine-overhead",
        description="fast-engine fan-out under an f=1 Byzantine plan "
        "(per-delivery adversary cost; honest twin is fanout/fast)",
        run=_run_fanout,
        params={
            "execution": {**_FAST, "fault_plan": _BYZANTINE_PLAN},
            "n": 48,
            "rounds": 8,
        },
        quick_params={"n": 24, "rounds": 4},
    )
)


def _run_symbolic_validate(params: dict, ctx: dict) -> dict:
    """Time the full symbolic gate: closed-form evaluation (sympy
    substitution + the arithmetic instance-profile binders) plus the
    metered engine runs it cross-validates against."""
    from ..analysis.symbolic import validate_symbolic

    report = validate_symbolic(
        ns=params["ns"], engines=tuple(params.get("engines", ("reference",)))
    )
    if not report.ok:
        raise CliqueError(
            "symbolic-validate workload found mismatches: " + report.summary()
        )
    return {
        "checks": len(report.checks),
        "algorithms": len({c.algorithm for c in report.checks}),
        "rounds": sum(c.measured.rounds for c in report.checks),
        "total_bits": sum(c.measured.total_bits for c in report.checks),
    }


register_workload(
    Workload(
        name="symbolic-validate",
        description="exact symbolic-cost gate over the full catalog "
        "(closed-form evaluation + reference-engine cross-validation)",
        run=_run_symbolic_validate,
        params={"ns": [8, 11, 16]},
        quick_params={"ns": [8, 9]},
        time_budget=40.0,
        quick_time_budget=15.0,
    )
)
