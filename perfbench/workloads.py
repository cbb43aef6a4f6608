"""The four workloads, each driving the program through its public API.

A workload is built from the benchmark seed alone: the seed picks which
pool instances (catalog configs and fault-plan seeds) it runs, and the
program only ever receives those generated inputs.  Each workload has

* ``setup()`` — untimed work before the timed pass (input generation,
  pool fork or daemon start, warm-up), timed by the harness as
  ``setup_s``; ``undo_setup()`` reverts it so set-up can be repeated;
* ``ops`` — one cycle of :class:`Op`; the timed pass repeats cycles;
* ``probes()`` — the per-layer measurements of the traced run;
* ``close()`` — stops every process the workload started.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from common import DEFINITION, OUT_DIR, ROOT, SETTINGS, program_env
from oracle import Oracle

from repro.engine import (
    ExecutionSpec,
    RunCache,
    catalog_factory,
    content_digest,
    run_spec,
    run_sweep,
    shutdown_pool,
)
from repro.faults import resilient
from repro.obs import MetricsCollector
from repro.service import ServiceClient

HELD_OUT_SEED = int(SETTINGS["held_out_seed"])


def _nothing() -> None:
    return None


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    ``prepare`` runs untimed before the call (e.g. building the
    ``RunSpec`` from generated inputs); ``run`` is the timed call;
    ``check`` returns how many of the op's ``count`` operations matched
    the oracle.
    """

    label: str
    count: int
    run: Callable[[Any], Any]
    check: Callable[[Any], int]
    prepare: Callable[[], Any] = _nothing


@dataclass
class Record:
    """The measured outcome of one op."""

    label: str
    count: int
    ok: int
    raw: float
    cycle: int
    scale: float = 1.0
    cached: "bool | None" = None
    error: "str | None" = None


def pick(workload: str, label: str, seed: int, k: int, pool: int) -> list[int]:
    """``k`` instance seeds of one op class for a benchmark seed.

    Ordinary seeds draw from ``range(pool)``; the held-out seed gets the
    reserved block ``range(pool, pool + k)`` no other seed ever runs.
    """
    if seed == HELD_OUT_SEED:
        return list(range(pool, pool + k))
    return random.Random(f"{workload}/{label}/{seed}").sample(range(pool), k)


def instance(config, plan=None, resilient_=False, source="reference") -> dict:
    return {
        "config": config,
        "plan": plan,
        "resilient": resilient_,
        "source": source,
    }


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _profile(spec, execution: ExecutionSpec):
    """Run with a profiling collector; ``(wall_s, RunMetrics)``."""
    t0 = time.perf_counter()
    result, _ = run_spec(
        spec, execution=execution.merged(observer=MetricsCollector(profile=True))
    )
    return time.perf_counter() - t0, result.metrics


def observer_cost(tracer, runs) -> tuple[float, float]:
    """Seconds with the default collector and with ``observer=False``.

    ``runs`` holds ``(build, execution)`` pairs; each is run both ways,
    interleaved, alternating which goes first.
    """
    on = off = 0.0
    for i, (build, execution) in enumerate(runs):
        for observed in (True, False) if i % 2 == 0 else (False, True):
            spec = build()
            chosen = execution if observed else execution.merged(observer=False)
            with tracer.span("engine.run_spec"):
                t0 = time.perf_counter()
                run_spec(spec, execution=chosen)
                dt = time.perf_counter() - t0
            if observed:
                on += dt
            else:
                off += dt
    return on, off


class Phases:
    """Sums engine phase times and simulated counts over profiled runs."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.phases: dict[str, float] = {}
        self.rounds = self.messages = self.bits = 0
        self.faults: dict[str, int] = {}

    def add(self, wall: float, metrics) -> None:
        self.wall += wall
        for name, sec in (metrics.phases or {}).items():
            self.phases[name] = self.phases.get(name, 0.0) + sec
        self.rounds += metrics.rounds
        self.messages += metrics.messages
        self.bits += metrics.total_bits
        for kind, count in metrics.faults.items():
            self.faults[kind] = self.faults.get(kind, 0) + count

    def metrics(self, phases=("spawn", "advance", "deliver")) -> dict:
        out = {f"engine.{p}_s": (self.phases.get(p, 0.0), "s") for p in phases}
        out["engine.ns_per_msg"] = (self.wall / max(1, self.messages) * 1e9, "ns")
        out["sim.rounds"] = (self.rounds, "count")
        out["sim.messages"] = (self.messages, "count")
        out["sim.bits"] = (self.bits, "count")
        return out


# ---------------------------------------------------------------------------
# sweep-catalog
# ---------------------------------------------------------------------------


class SweepCatalog:
    """One ``run_sweep`` over a fixed grid of paper catalog entries."""

    name = "sweep-catalog"
    prefix = "sweep"
    per_request = False
    #: Whether program code runs in the benchmark process (its peak RSS
    #: then counts): ``run_sweep`` coordinates the pool from it.
    in_process = True
    #: Cores the workload keeps busy (the calibration follows): the
    #: pool's two workers.
    cores = 2
    GRID = {
        "kds": (12, 16, 24),
        "kvc": (16, 32, 48),
        "subgraph": (16, 27, 36),
        "kis": (12, 16, 24),
        "matmul": (8, 16, 27),
        "apsp": (8, 12, 16),
        "sorting": (8, 16, 24),
        "bfs": (16, 32, 48),
        "broadcast": (16, 32, 48),
    }
    POOL = 16
    SEEDS = 8
    #: Reserved held-out instances per (entry, size); serve-mixed draws
    #: up to this many from the same pool.
    HELD_OUT = 10

    def __init__(self, seed: int, tracer, oracle: Oracle) -> None:
        self.tracer = tracer
        self.oracle = oracle
        self.seed = seed
        self.configs: list[dict] = []
        self.ops = [Op("sweep", 0, self._sweep, self._check)]

    @classmethod
    def instances(cls):
        for algo, ns in cls.GRID.items():
            for n in ns:
                for s in range(cls.POOL + cls.HELD_OUT):
                    yield instance({"algorithm": algo, "n": n, "seed": s})

    def _grid(self) -> list[dict]:
        return [
            {"algorithm": algo, "n": n, "seed": s}
            for algo, ns in self.GRID.items()
            for n in ns
            for s in pick(self.name, f"{algo}{n}", self.seed, self.SEEDS, self.POOL)
        ]

    def setup(self) -> None:
        self.configs = self._grid()
        self.expected = [self.oracle.expect(c) for c in self.configs]
        self.ops[0].count = len(self.configs)
        warm = [
            next(c for c in self.configs if c["algorithm"] == algo)
            for algo in self.GRID
        ]
        with self.tracer.span("pool.run_sweep"):
            run_sweep(catalog_factory, warm)  # forks the warm pool

    def undo_setup(self) -> None:
        shutdown_pool()

    def close(self) -> None:
        shutdown_pool()

    def _sweep(self, _):
        with self.tracer.span("pool.run_sweep"):
            return run_sweep(catalog_factory, self.configs)

    def _check(self, outcomes) -> int:
        return sum(
            1
            for outcome, exp in zip(outcomes, self.expected)
            if not outcome.failed
            and self.oracle.result_ok(exp, outcome.result, outcome.value)
        )

    def probes(self, records: list[Record]) -> dict:
        fast = ExecutionSpec(engine="fast")
        build = 0.0
        for config in self.configs:
            with self.tracer.span("problems.build"):
                t0 = time.perf_counter()
                catalog_factory(dict(config))
                build += time.perf_counter() - t0
        on, off = observer_cost(
            self.tracer,
            [(lambda c=c: catalog_factory(dict(c)), fast) for c in self.configs],
        )
        total = Phases()
        advance: dict[str, float] = {}
        for config in self.configs:
            with self.tracer.span("engine.run_spec"):
                wall, metrics = _profile(catalog_factory(dict(config)), fast)
            total.add(wall, metrics)
            algo = config["algorithm"]
            advance[algo] = advance.get(algo, 0.0) + metrics.phases["advance"]
        walls = [r.raw for r in records if r.label == "sweep"]
        wall = statistics.median(walls)
        workers = usable_cores()
        out = {"problems.build_s": (build, "s")}
        out.update(total.metrics())
        for algo in self.GRID:
            out[f"engine.advance_s.{algo}"] = (advance[algo], "s")
        out["obs.metrics_s"] = (on - off, "s")
        out["pool.overhead_s"] = (wall - on / workers, "s")
        out["pool.efficiency"] = (on / (workers * wall), "ratio")
        return out


# ---------------------------------------------------------------------------
# columnar-large and chaos-explicit: sequential run_spec calls
# ---------------------------------------------------------------------------


@dataclass
class SpecOp:
    """One ``run_spec`` op class: a catalog config under an execution."""

    label: str
    config: dict
    execution: dict = field(default_factory=dict)
    plan_format: "str | None" = None
    resilient: bool = False
    pool: int = 8
    source: str = "reference"
    warm_n: "int | None" = None

    def plan(self, s: int) -> "str | None":
        return None if self.plan_format is None else self.plan_format.format(seed=s)

    def config_for(self, s: int) -> dict:
        return dict(self.config, seed=s)


class SpecWorkload:
    """Sequential ``run_spec`` calls, one :class:`SpecOp` per op."""

    per_request = False
    in_process = True
    cores = 1
    OPS: tuple = ()

    def __init__(self, seed: int, tracer, oracle: Oracle) -> None:
        self.tracer = tracer
        self.oracle = oracle
        self.seed = seed
        self.ops: list[Op] = []
        self.points: list[tuple[SpecOp, int]] = []

    @classmethod
    def instances(cls):
        for sop in cls.OPS:
            for s in range(sop.pool + 1):
                yield instance(
                    sop.config_for(s), sop.plan(s), sop.resilient, sop.source
                )

    def _execution(self, sop: SpecOp, s: int) -> ExecutionSpec:
        return ExecutionSpec(**sop.execution, fault_plan=sop.plan(s))

    def _build(self, sop: SpecOp, config: dict):
        with self.tracer.span("problems.build"):
            spec = catalog_factory(dict(config))
            if sop.resilient:
                spec.program = resilient(spec.program)
        return spec

    def _op(self, sop: SpecOp, s: int) -> Op:
        config = sop.config_for(s)
        expected = self.oracle.expect(config, sop.plan(s), sop.resilient)
        execution = self._execution(sop, s)

        def run(spec):
            with self.tracer.span("engine.run_spec"):
                return run_spec(spec, execution=execution)

        return Op(
            label=sop.label,
            count=1,
            run=run,
            check=lambda out: int(self.oracle.result_ok(expected, *out)),
            prepare=lambda: self._build(sop, config),
        )

    def setup(self) -> None:
        self.points = [
            (sop, pick(self.name, sop.label, self.seed, 1, sop.pool)[0])
            for sop in self.OPS
        ]
        self.ops = [self._op(sop, s) for sop, s in self.points]
        for sop, s in self.points:  # warm-up: every op class once
            config = sop.config_for(s)
            if sop.warm_n is not None:
                config["n"] = sop.warm_n
            run_spec(self._build(sop, config), execution=self._execution(sop, s))

    def undo_setup(self) -> None:
        self.ops = []

    def close(self) -> None:
        pass

    def _profiled(self) -> Phases:
        total = Phases()
        for sop, s in self.points:
            spec = self._build(sop, sop.config_for(s))
            with self.tracer.span("engine.run_spec"):
                total.add(*_profile(spec, self._execution(sop, s)))
        return total


class ColumnarLarge(SpecWorkload):
    """Columnar engine at large n: (n, n) inbox arrays beyond the caches."""

    name = "columnar-large"
    prefix = "columnar"
    OPS = (
        SpecOp(
            "fanout-full",
            {"algorithm": "fanout", "n": 2048, "rounds": 64},
            {"engine": "columnar", "check": "full"},
            pool=2,
            source="fast",
            warm_n=64,
        ),
        SpecOp(
            "fanout-bandwidth",
            {"algorithm": "fanout", "n": 2048, "rounds": 64},
            {"engine": "columnar", "check": "bandwidth"},
            pool=2,
            source="fast",
            warm_n=64,
        ),
        SpecOp(
            "fanout_work",
            {"algorithm": "fanout_work", "n": 1024, "rounds": 16},
            {"engine": "columnar"},
            pool=4,
            warm_n=64,
        ),
        SpecOp(
            "matmul",
            {"algorithm": "matmul", "n": 216},
            {"engine": "columnar"},
            pool=4,
            warm_n=27,
        ),
        SpecOp(
            "sorting",
            {"algorithm": "sorting", "n": 128},
            {"engine": "columnar"},
            pool=4,
            warm_n=16,
        ),
        # The routing instance does not depend on its seed.
        SpecOp(
            "routing",
            {"algorithm": "routing", "n": 512},
            {"engine": "columnar"},
            pool=1,
            warm_n=32,
        ),
    )

    def probes(self, records: list[Record]) -> dict:
        on, off = observer_cost(
            self.tracer,
            [
                (lambda sop=sop, s=s: self._build(sop, sop.config_for(s)),
                 self._execution(sop, s))
                for sop, s in self.points
            ],
        )
        out = self._profiled().metrics()
        out["obs.metrics_s"] = (on - off, "s")
        return out


_BYZ = "byzantine=equivocate+selective,f=2,seed={seed}"
#: The fault kinds counted one by one: the ``chaos.faults.<kind>``
#: counts that ``BENCHMARK.json`` lists.
FAULT_KINDS = [
    m["name"].removeprefix("chaos.faults.")
    for m in DEFINITION["per_layer"]
    if m["name"].startswith("chaos.faults.")
    and m["name"] not in ("chaos.faults.injected", "chaos.faults.deliver_s")
]


class ChaosExplicit(SpecWorkload):
    """Seeded fault plans: every message takes the explicit delivery loop."""

    name = "chaos-explicit"
    prefix = "chaos"
    OPS = (
        SpecOp("resilient-bfs", {"algorithm": "bfs", "n": 16}, {},
               "drop=0.2,seed={seed}", resilient=True),
        SpecOp("resilient-broadcast", {"algorithm": "broadcast", "n": 16}, {},
               "drop=0.2,seed={seed}", resilient=True),
        SpecOp("resilient-kvc", {"algorithm": "kvc", "n": 16}, {},
               "drop=0.2,seed={seed}", resilient=True),
        SpecOp("bracha-fast", {"algorithm": "bracha", "n": 16, "f": 2},
               {"engine": "fast"}, _BYZ),
        SpecOp("bracha-columnar", {"algorithm": "bracha", "n": 16, "f": 2},
               {"engine": "columnar"}, _BYZ),
        SpecOp("dolev-fast", {"algorithm": "dolev", "n": 16, "f": 2},
               {"engine": "fast"}, _BYZ),
        SpecOp("dolev-columnar", {"algorithm": "dolev", "n": 16, "f": 2},
               {"engine": "columnar"}, _BYZ),
        SpecOp("fanout-fast", {"algorithm": "fanout", "n": 128},
               {"engine": "fast"}, "drop=0.05,seed={seed}"),
        SpecOp("fanout-columnar", {"algorithm": "fanout", "n": 128},
               {"engine": "columnar"}, "drop=0.05,seed={seed}"),
    )

    def probes(self, records: list[Record]) -> dict:
        total = self._profiled()
        out = total.metrics(phases=("spawn", "advance", "deliver", "validate"))
        out["faults.deliver_s"] = (total.phases.get("deliver", 0.0), "s")
        out["faults.injected"] = (sum(total.faults.values()), "count")
        for kind in FAULT_KINDS:
            out[f"faults.{kind}"] = (total.faults.get(kind, 0), "count")
        return out


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


class ServeMixed:
    """A ``repro serve`` daemon driven by one closed-loop client."""

    name = "serve-mixed"
    prefix = "serve"
    per_request = True
    #: Only the client runs here; the program runs in the daemon.
    in_process = False
    #: The client and the daemon, taking turns on two cores.
    cores = 2
    #: Primed points (cache reads): one size per catalog entry whose
    #: output is common to all nodes.  A ``run`` reply carries only the
    #: common output, so per-node entries (apsp, matmul, sorting) could
    #: not be checked.
    PRIMED = {
        "kds": 16,
        "kvc": 32,
        "subgraph": 27,
        "kis": 16,
        "bfs": 32,
        "broadcast": 32,
    }
    PRIMED_SEEDS = 6
    MISS = ("kds", 24)
    #: 36 hits and 9 misses per cycle: misses are 20% of requests.
    MISSES_PER_CYCLE = 9

    def __init__(self, seed: int, tracer, oracle: Oracle) -> None:
        self.tracer = tracer
        self.oracle = oracle
        self.seed = seed
        self.ops: list[Op] = []
        self.proc: "subprocess.Popen | None" = None
        self.tmp: "str | None" = None
        self.client: "ServiceClient | None" = None
        self.primed: list[dict] = []
        self.misses: list[dict] = []
        self._nonce = itertools.count()

    @classmethod
    def instances(cls):
        return iter(())  # every point is a sweep-catalog pool instance

    def _points(self):
        pool, k = SweepCatalog.POOL, self.PRIMED_SEEDS
        primed = [
            {"algorithm": algo, "n": n, "seed": s}
            for algo, n in self.PRIMED.items()
            for s in pick(self.name, f"{algo}{n}", self.seed, k, pool)
        ]
        algo, n = self.MISS
        misses = [
            {"algorithm": algo, "n": n, "seed": s}
            for s in pick(self.name, "miss", self.seed, self.MISSES_PER_CYCLE, pool)
        ]
        return primed, misses

    def _request(self, config: dict, fresh: bool):
        request = dict(config)
        if fresh:
            # A key no earlier request used: the daemon runs and writes.
            request["request"] = f"{self.seed}-{next(self._nonce)}"
        algo = request.pop("algorithm")
        with self.tracer.span("service.request"):
            return self.client.run(algo, request)

    def _op(self, config: dict, fresh: bool) -> Op:
        expected = self.oracle.expect(config)
        return Op(
            label="miss" if fresh else "hit",
            count=1,
            run=lambda _: self._request(config, fresh),
            check=lambda reply: int(self.oracle.reply_ok(expected, reply)),
        )

    def _start(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        # Relative to the checkout: AF_UNIX paths are limited to ~100 bytes.
        sock = os.path.relpath(os.path.join(self.tmp, "d.sock"), ROOT)
        log = open(os.path.join(self.tmp, "daemon.log"), "wb")
        with log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", sock,
                 "--cache", os.path.join(self.tmp, "cache"), "--workers", "1"],
                cwd=ROOT,
                env=program_env(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.client = ServiceClient(sock, timeout=60.0)
        self.client.wait_until_ready(timeout=60.0)

    def setup(self) -> None:
        self._start()
        self.primed, self.misses = self._points()
        for config in self.primed:  # priming: each point runs once and is cached
            self._request(config, fresh=False)
        # Every primed point once and every miss instance once per
        # cycle, so all seeds send the same mix; the seed shuffles it.
        self.ops = [self._op(c, False) for c in self.primed]
        self.ops += [self._op(c, True) for c in self.misses]
        random.Random(f"{self.name}/order/{self.seed}").shuffle(self.ops)
        for op in self.ops[:12]:  # warm-up
            op.run(None)

    def undo_setup(self) -> None:
        self.close()

    def close(self) -> None:
        if self.proc is not None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait(timeout=30)
            self.proc = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def probes(self, records: list[Record]) -> dict:
        pings = []
        for _ in range(100):
            t0 = time.perf_counter()
            with self.tracer.span("service.request"):
                self.client.ping()
            pings.append(time.perf_counter() - t0)
        hit = [r.raw for r in records if r.label == "hit"]
        miss = [r.raw for r in records if r.label == "miss"]
        replies = [r for r in records if r.cached is not None]
        # Engine layer: the runs one cycle's misses execute.
        fast = ExecutionSpec(engine="fast")
        total = Phases()
        payloads = []
        for config in self.misses + self.primed:
            spec = catalog_factory(dict(config))
            with self.tracer.span("engine.run_spec"):
                wall, metrics = _profile(spec, fast)
            if config in self.misses:
                total.add(wall, metrics)
            payload = run_spec(catalog_factory(dict(config)), execution=fast)
            payloads.append((config, payload))
        # Cache layer: RunCache calls on the daemon's points, in a
        # private directory beside the daemon's.
        cache = RunCache(os.path.join(self.tmp, "probe-cache"))
        keys, puts, gets = [], [], []
        for config, payload in payloads:
            k = cache.key_for(
                program="perfbench", n=config["n"], bandwidth=None,
                input_digest=content_digest(config), engine=fast.describe()["engine"],
            )
            with self.tracer.span("cache.put"):
                t0 = time.perf_counter()
                cache.put(k, payload)
                puts.append(time.perf_counter() - t0)
            keys.append(k)
        for k in keys:
            with self.tracer.span("cache.get"):
                t0 = time.perf_counter()
                got = cache.get(k)
                gets.append(time.perf_counter() - t0)
            if got is None:
                raise RuntimeError("cache probe: a stored entry read back as a miss")
        size = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(cache.root)
            for f in files
        )
        get_ms = statistics.median(gets) * 1e3
        hit_ms = statistics.median(hit) * 1e3
        out = total.metrics()
        out.update({
            "cache.get_ms": (get_ms, "ms"),
            "cache.put_ms": (statistics.median(puts) * 1e3, "ms"),
            "cache.entry_kb": (size / len(keys) / 1024, "KiB"),
            "cache.hit_ratio": (
                sum(1 for r in replies if r.cached) / max(1, len(replies)), "ratio"
            ),
            "service.ping_ms": (statistics.median(pings) * 1e3, "ms"),
            "service.hit_ms": (hit_ms, "ms"),
            "service.miss_ms": (statistics.median(miss) * 1e3, "ms"),
            "service.overhead_ms": (hit_ms - get_ms, "ms"),
        })
        return out


WORKLOADS = {
    w.name: w for w in (SweepCatalog, ColumnarLarge, ChaosExplicit, ServeMixed)
}


def all_instances():
    """Every instance any workload can run, for the oracle generator."""
    for cls in WORKLOADS.values():
        yield from cls.instances()
