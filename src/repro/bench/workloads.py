"""The benchmark suite registry: stable, named engine workloads.

Each :class:`Workload` names one timing that the external end-to-end
yardstick (``perfbench/``) cannot show: the paired rows behind the
README's speedup ratios (reference vs. fast fan-out, columnar vs. fast
fan-out at n=1024), the metrics-overhead twin, the relay-routing
generator, honest Bracha broadcast, the bit codecs and the symbolic
cost-model gate — with pinned seeds and sizes so repeated runs measure
the same work.  Catalog sweeps, the warm pool, ``RunCache``, the daemon
and fault injection are timed end to end by perfbench.

Workload *names are an interface*: ``BENCH_*.json`` artifacts and the
committed ``benchmarks/baseline.json`` are keyed by them, so renaming or
re-parameterising a workload invalidates the comparison history (the
ratchet reports it as ``added``/``removed`` rather than silently mixing
incomparable timings).

The runners reuse the existing execution stack (``run_spec`` over the
diff catalog, ``CongestedClique.run``) instead of re-implementing
timing loops, so a benchmark exercises exactly the code paths real
experiments use.
"""

from __future__ import annotations

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


def _run_fanout(params: dict) -> dict:
    result = all_to_all_chatter(
        params["n"], params["rounds"], execution=params["execution"]
    )
    return _info_from_result(result)


def _run_relay_route(params: dict) -> dict:
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


def _run_bool_codec(params: dict) -> dict:
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


def _run_catalog(params: dict) -> dict:
    from ..engine.diff import catalog_factory
    from ..engine.pool import run_spec

    result, _ = run_spec(
        catalog_factory(dict(params["config"])), execution=params["execution"]
    )
    return _info_from_result(result)


def _run_bulk_uint_codec(params: dict) -> dict:
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


@dataclass(frozen=True)
class Workload:
    """One named benchmark: a timed runner plus pinned parameters.

    ``run(params)`` executes one timed iteration and returns the
    deterministic info payload recorded in the artifact.
    ``quick_params`` are merged over ``params`` in quick mode.
    """

    name: str
    description: str
    run: Callable[[dict], dict]
    params: dict = field(default_factory=dict)
    quick_params: dict = field(default_factory=dict)
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


def _run_symbolic_validate(params: dict) -> dict:
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
