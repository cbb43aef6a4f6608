"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure1``     print the Figure 1 exponent table and reduction arrows
``miniature``   run the Theorem 2 time-hierarchy miniature end to end
``counting``    print the Lemma 1 / Theorem 2/4/8 counting tables
``run``         run one catalog algorithm and print its output, rounds
                and bits (in-process, or on a daemon with ``--remote``)
``sweep``       run an (algorithm, n, seed) grid through the parallel
                sweep engine and fit round/load exponents
``stats``       run one catalog algorithm and print its per-round
                RunMetrics table (optionally link/phase breakdowns)
``trace``       run one catalog algorithm under the structured tracer
                and print (or write to JSONL) the event stream
``bench``       the engine benchmark suite: ``bench run`` emits a
                schema-versioned ``BENCH_<sha>.json``, ``bench compare``
                ratchets two artifacts, ``bench list`` names the
                workloads
``serve``       run the long-lived service daemon on a local socket
                (warm worker pool + resident run cache); ``--status``
                and ``--stop`` talk to a running daemon
``demo``        run one of the bundled example scenarios

``repro run --remote`` sends the same catalog point to a ``repro serve``
daemon instead of executing in-process, skipping interpreter cold-start
and reusing the daemon's cache.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .analysis.report import format_table, magnitude
from .clique.errors import CliqueError

__all__ = ["main", "build_parser"]


class _LazyChoices:
    """Argparse ``choices`` container that resolves on first use.

    Parser construction stays free of the heavy engine/catalog imports;
    the loader runs only when argparse checks membership or formats
    help, i.e. when the relevant subcommand is actually exercised.
    """

    def __init__(self, load) -> None:
        self._load = load
        self._values: "list | None" = None

    def _resolve(self) -> list:
        if self._values is None:
            self._values = list(self._load())
        return self._values

    def __iter__(self):
        return iter(self._resolve())

    def __contains__(self, item) -> bool:
        return item in self._resolve()

    def __len__(self) -> int:
        return len(self._resolve())


def _engine_choices() -> "list[str]":
    """Every registered backend, lazily-registered ones included — the
    registry is the single source of truth, not a hardcoded list."""
    from .engine.base import engine_names

    return engine_names()


def _check_choices() -> "list[str]":
    from .engine.base import CHECK_LEVELS

    return list(CHECK_LEVELS)


def _catalog_choices() -> "list[str]":
    from .engine.diff import CATALOG

    return sorted(CATALOG)


#: ``repro demo`` names -> the example script each one runs.
_DEMOS = {
    "quickstart": "quickstart.py",
    "landscape": "fine_grained_landscape.py",
    "nondeterminism": "nondeterminism_demo.py",
    "routing": "cluster_routing.py",
    "hierarchy": "time_hierarchy_miniature.py",
    "search": "search_problems_and_broadcast.py",
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (see the module docstring)."""
    from .engine.spec import BATCH_ENGINE

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Executable reproduction of 'Towards a Complexity Theory for "
            "the Congested Clique' (Korhonen & Suomela, SPAA 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure1", help="the fine-grained landscape")
    p_fig.add_argument("--k", type=int, default=3)
    p_fig.add_argument("--omega", type=float, default=None)
    p_fig.add_argument(
        "--arrows", action="store_true", help="also list reduction arrows"
    )

    sub.add_parser(
        "miniature", help="Theorem 2 executed at (n=2, b=1, L=2)"
    )

    p_count = sub.add_parser("counting", help="Lemma 1 counting tables")
    p_count.add_argument(
        "--theorem", choices=["2", "4", "8"], default="2"
    )
    p_count.add_argument(
        "--sizes", type=int, nargs="+", default=[64, 256, 1024]
    )

    # Derived from repro.engine.diff.CATALOG on first use, so new
    # catalog entries appear here without any CLI change.
    catalog_names = _LazyChoices(_catalog_choices)
    batch_engine_help = f"execution backend (default: {BATCH_ENGINE})"

    p_run = sub.add_parser(
        "run", help="run one catalog algorithm and print its output"
    )
    p_run.add_argument("algorithm", choices=catalog_names)
    p_run.add_argument("--n", type=int, default=32)
    p_run.add_argument("--p", type=float, default=None)
    p_run.add_argument("--k", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--engine",
        choices=_LazyChoices(_engine_choices),
        default=None,
        help=(
            f"execution backend (default: reference; with --remote, the "
            f"daemon's {BATCH_ENGINE})"
        ),
    )
    p_run.add_argument(
        "--check",
        choices=_LazyChoices(_check_choices),
        default=None,
        help="validation level (default: the engine's own default)",
    )
    p_run.add_argument(
        "--remote", action="store_true",
        help=(
            "send the run to a 'repro serve' daemon instead of executing "
            "in-process"
        ),
    )
    p_run.add_argument(
        "--socket", default=None, metavar="PATH",
        help="daemon socket for --remote (default: the serve default)",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="run an (algorithm, n, seed) grid through the sweep engine",
    )
    p_sweep.add_argument("algorithm", choices=catalog_names)
    p_sweep.add_argument(
        "--ns", type=int, nargs="+", default=[16, 32, 64],
        help="clique sizes of the grid",
    )
    p_sweep.add_argument(
        "--seeds", type=int, default=2, help="seeds per clique size"
    )
    p_sweep.add_argument("--k", type=int, default=None)
    p_sweep.add_argument("--p", type=float, default=None)
    p_sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: auto; 1 = serial)",
    )
    p_sweep.add_argument(
        "--engine",
        choices=_LazyChoices(_engine_choices),
        default=None,
        help=batch_engine_help,
    )
    p_sweep.add_argument(
        "--check", choices=_LazyChoices(_check_choices), default=None,
        help="validation level (default: the engine's own)",
    )
    p_sweep.add_argument(
        "--cache", default=None, metavar="DIR",
        help="run-cache directory (reruns of the same grid are free)",
    )
    p_sweep.add_argument("--base-seed", type=int, default=0)
    p_sweep.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help=(
            "deterministic fault plan applied to every point, e.g. "
            "'drop=0.1,corrupt=0.01,seed=7'"
        ),
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-attempt wall-clock deadline; a pool worker holding a "
            "point past it is killed and replaced, and the attempt counts "
            "as failed (points run one at a time per pool worker)"
        ),
    )
    p_sweep.add_argument(
        "--retries", type=int, default=0,
        help="retry a failing point this many times before marking it failed",
    )

    p_stats = sub.add_parser(
        "stats",
        help="run one catalog algorithm and print per-round run metrics",
    )
    p_stats.add_argument("algorithm", choices=catalog_names)
    p_stats.add_argument("--n", type=int, default=16)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--k", type=int, default=None)
    p_stats.add_argument("--p", type=float, default=None)
    p_stats.add_argument(
        "--engine",
        choices=_LazyChoices(_engine_choices),
        default=None,
        help=batch_engine_help,
    )
    p_stats.add_argument(
        "--check", choices=_LazyChoices(_check_choices), default=None
    )
    p_stats.add_argument(
        "--links", type=int, default=0, metavar="K",
        help="also print the K busiest links (per-link accounting)",
    )
    p_stats.add_argument(
        "--profile", action="store_true",
        help="also print the wall-clock phase breakdown",
    )
    p_stats.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help=(
            "inject deterministic faults and show per-round/per-kind "
            "fault counts, e.g. 'drop=0.1,seed=7' or "
            "'byzantine=equivocate+forge,f=2,seed=7'"
        ),
    )
    p_stats.add_argument(
        "--f", type=int, default=None, metavar="F",
        help=(
            "fault tolerance parameter for the Byzantine catalog "
            "entries (bracha, dolev)"
        ),
    )
    p_stats.add_argument(
        "--resilient", action="store_true",
        help=(
            "wrap the program in the ack/retransmit resilience layer "
            "and print its retransmit/unacked counters"
        ),
    )
    p_stats.add_argument(
        "--cache", default=None, metavar="DIR",
        help=(
            "run-cache directory (shared with 'repro sweep'; a repeated "
            "invocation serves the metrics from disk)"
        ),
    )

    p_predict = sub.add_parser(
        "predict",
        help=(
            "evaluate an algorithm's closed-form symbolic cost model "
            "(and cross-validate it exactly against metered runs)"
        ),
    )
    # Deliberately NOT restricted to parser choices: unknown names must
    # reach get_cost_model() so its did-you-mean hint fires.
    p_predict.add_argument(
        "algorithm", nargs="?", default=None,
        help="catalog algorithm (omit with --validate to gate the full catalog)",
    )
    p_predict.add_argument(
        "--n", type=int, default=1_000_000, metavar="N",
        help="extrapolation target clique size (default: 1000000)",
    )
    p_predict.add_argument("--seed", type=int, default=0)
    p_predict.add_argument("--k", type=int, default=None)
    p_predict.add_argument("--p", type=float, default=None)
    p_predict.add_argument("--f", type=int, default=None)
    p_predict.add_argument(
        "--validate", action="store_true",
        help=(
            "run the exact gate: execute the catalog point(s) fault-free "
            "on every engine and require zero-tolerance agreement with "
            "the closed forms (exit 1 on any mismatch)"
        ),
    )
    p_predict.add_argument(
        "--ns", type=int, nargs="+", default=None, metavar="N",
        help="clique sizes for --validate (default: 8 11 16)",
    )
    p_predict.add_argument(
        "--engines", nargs="+", default=["reference", "fast"], metavar="NAME",
        help="engines the --validate gate runs (default: reference fast)",
    )
    p_predict.add_argument(
        "--markdown", action="store_true",
        help="emit the --validate report as a GitHub-flavoured table",
    )

    p_trace = sub.add_parser(
        "trace",
        help="run one catalog algorithm under the structured event tracer",
    )
    p_trace.add_argument("algorithm", choices=catalog_names)
    p_trace.add_argument("--n", type=int, default=16)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--k", type=int, default=None)
    p_trace.add_argument("--p", type=float, default=None)
    p_trace.add_argument(
        "--engine",
        choices=_LazyChoices(_engine_choices),
        default=None,
        help=batch_engine_help,
    )
    p_trace.add_argument(
        "--check", choices=_LazyChoices(_check_choices), default=None
    )
    p_trace.add_argument(
        "--limit", type=int, default=40,
        help="print at most this many of the last events (ring buffer)",
    )
    p_trace.add_argument(
        "--sample", type=int, default=1,
        help="keep every K-th message event (boundaries always kept)",
    )
    p_trace.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="stream all events to FILE as JSON lines instead of printing",
    )

    p_bench = sub.add_parser(
        "bench",
        help="engine benchmark suite: run / compare / list",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    b_run = bench_sub.add_parser(
        "run", help="time the workload suite and emit BENCH_<sha>.json"
    )
    b_run.add_argument(
        "--quick", action="store_true",
        help="reduced sizes/budgets (the CI configuration)",
    )
    b_run.add_argument(
        "--out", default=None, metavar="FILE",
        help="artifact path (default: ./BENCH_<git-sha>.json)",
    )
    b_run.add_argument(
        "--only", nargs="+", default=None, metavar="WORKLOAD",
        help="run only these workloads (see 'repro bench list')",
    )
    b_run.add_argument(
        "--repeats", type=int, default=None,
        help="timed repetitions per workload (default: 5, quick: 3)",
    )
    b_run.add_argument(
        "--warmup", type=int, default=1,
        help="untimed warmup calls per workload",
    )
    b_run.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="override the per-workload time budget",
    )

    b_cmp = bench_sub.add_parser(
        "compare",
        help="ratchet NEW against OLD; exit 1 on any regression",
    )
    b_cmp.add_argument("old", help="baseline BENCH_*.json (or baseline.json)")
    b_cmp.add_argument("new", help="candidate BENCH_*.json")
    b_cmp.add_argument(
        "--tolerance", type=float, default=1.25,
        help="slowdown ratio that counts as a regression (default 1.25)",
    )
    b_cmp.add_argument(
        "--markdown", action="store_true",
        help="print a GitHub-flavoured markdown table (for job summaries)",
    )

    bench_sub.add_parser("list", help="list the registered workloads")

    p_serve = sub.add_parser(
        "serve",
        help="run the service daemon (warm pool + resident run cache)",
    )
    p_serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listening socket path (default: a per-user temp path)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="concurrent request worker threads (default: 4)",
    )
    p_serve.add_argument(
        "--queue-size", type=int, default=32,
        help="pending-request bound before 'busy' rejections (default: 32)",
    )
    p_serve.add_argument(
        "--cache", default=None, metavar="DIR",
        help="resident run-cache directory (default: the cache default)",
    )
    p_serve.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="LRU bound on cache entries (default: unbounded)",
    )
    p_serve.add_argument(
        "--cache-max-entry-bytes", type=int, default=None, metavar="BYTES",
        help="admission bound on one pickled entry (default: unbounded)",
    )
    p_serve.add_argument(
        "--status", action="store_true",
        help="print a running daemon's status and exit",
    )
    p_serve.add_argument(
        "--stop", action="store_true",
        help="ask a running daemon to shut down and exit",
    )

    p_demo = sub.add_parser("demo", help="run a bundled example scenario")
    p_demo.add_argument("name", choices=list(_DEMOS))
    return parser


def _cmd_figure1(args) -> int:
    from .core.exponents import OMEGA, figure1_registry

    registry = figure1_registry(
        k=args.k, omega=args.omega if args.omega else OMEGA
    )
    print(
        format_table(
            registry.table(),
            columns=["problem", "delta_upper", "direct_bound", "source"],
            title=f"Figure 1 exponents (k={args.k})",
        )
    )
    if args.arrows:
        print()
        print(
            format_table(
                [
                    {
                        "arrow": f"delta({e.frm}) <= delta({e.to})",
                        "source": e.source or "-",
                    }
                    for e in registry.arrows()
                ],
                title="reduction arrows",
            )
        )
    return 0


def _cmd_miniature(_args) -> int:
    from .core.time_hierarchy import time_hierarchy_miniature

    audit = time_hierarchy_miniature()
    rows = [
        {
            "n": audit.n,
            "b": audit.b,
            "L": audit.L,
            "#functions": audit.num_functions,
            "#1-round computable": audit.num_computable_one_round,
            "first hard f": audit.f_index,
            "decider rounds": audit.decider_rounds,
            "separates": audit.separates,
        }
    ]
    print(format_table(rows, title="Theorem 2 miniature"))
    return 0 if audit.separates else 1


def _cmd_counting(args) -> int:
    from .core.time_hierarchy import separation_table

    rows = separation_table(args.sizes, f"theorem{args.theorem}")
    for row in rows:
        for key in ("log2_protocols", "log2_functions"):
            if key in row:
                row[key] = magnitude(row[key])
    print(format_table(rows, title=f"Theorem {args.theorem} counting"))
    return 0


def _cmd_run(args) -> int:
    from .engine import ExecutionSpec
    from .engine.diff import catalog_factory
    from .engine.pool import run_spec
    from .service import ServiceClient, ServiceError
    from .service.server import _json_safe

    config = _catalog_config(args, algorithm=args.algorithm, n=args.n, seed=args.seed)
    execution = ExecutionSpec(engine=args.engine, check=args.check)
    if args.remote:
        client = ServiceClient(args.socket)
        try:
            reply = client.run(args.algorithm, config, execution=execution)
        except ServiceError as exc:
            print(f"repro run --remote: {exc}", file=sys.stderr)
            return 2
        print(f"daemon: {client.socket_path}")
        print(f"cached: {'yes' if reply['cached'] else 'no'}")
    else:
        result, _ = run_spec(catalog_factory(config), execution=execution)
        try:
            common = result.common_output()
        except CliqueError:
            common = None  # per-node outputs (e.g. apsp distance rows)
        # The reply fields the daemon's run op sends, converted alike.
        reply = {"rounds": result.rounds, "common_output": _json_safe(common)}
        if result.metrics is not None:
            reply["metrics"] = result.metrics.summary()
    print(f"output: {reply['common_output']}")
    print(f"rounds: {reply['rounds']}")
    if "metrics" in reply:
        m = reply["metrics"]
        print(
            f"bits: {m['total_bits']} total "
            f"(max node load {m['max_load_bits']})"
        )
    return 0


def _measured_load(result) -> int:
    """Max per-node routed payload bits (the exponent-bearing load),
    read from the run's :class:`repro.obs.RunMetrics`."""
    if result.metrics is not None:
        return result.metrics.routed_payload_load()
    # Metrics-off run: fall back to the raw per-node counters.
    return max(
        result.max_counter("route_payload_in_bits"),
        result.max_counter("route_payload_out_bits"),
    )


def _catalog_config(args, **point) -> dict:
    """The diff-catalog config of ``run``, ``stats``, ``trace``, ``sweep``
    and ``predict``: ``point`` plus whichever of ``--k``/``--p``/``--f``/
    ``--resilient`` the command has and was given.  One builder, so the
    commands that share a cache also share its keys."""
    for name in ("k", "p", "f"):
        if getattr(args, name, None) is not None:
            point[name] = getattr(args, name)
    if getattr(args, "resilient", False):
        point["resilient"] = True
    return point


def _big(x: int) -> str:
    """Exact when it fits on a line, order-of-magnitude otherwise."""
    from .analysis.report import magnitude

    return str(x) if x < 10**20 else magnitude(x)


def _cmd_predict(args) -> int:
    from .analysis import symbolic
    from .analysis.report import format_table

    if args.validate:
        names = [args.algorithm] if args.algorithm else None
        report = symbolic.validate_symbolic(
            names=names,
            ns=args.ns or symbolic.DEFAULT_VALIDATION_NS,
            config=_catalog_config(args, seed=args.seed),
            engines=tuple(args.engines),
        )
        print(report.markdown() if args.markdown else report.table())
        return 0 if report.ok else 1

    if not args.algorithm:
        print(
            "error: repro predict needs an algorithm (or --validate)",
            file=sys.stderr,
        )
        return 2
    model = symbolic.get_cost_model(args.algorithm)
    config = _catalog_config(args, seed=args.seed)
    print(f"algorithm: {model.name}")
    print(f"rounds        = {model.rounds}")
    print(f"message_bits  = {model.message_bits}")
    print(f"bulk_bits     = {model.bulk_bits}")
    if model.domain:
        print(f"domain: {model.domain}")
    if model.assumes:
        print(f"assumes: {model.assumes}")
    if model.exponent:
        print(f"exponent: {model.exponent}")
    target = max(2, int(args.n))
    ns = []
    cur = model.default_n
    while cur < target:
        ns.append(cur)
        cur *= 4
    ns.append(target)
    rows = [
        {
            "n": point.n,
            "rounds": _big(point.rounds),
            "message_bits": _big(point.message_bits),
            "bulk_bits": _big(point.bulk_bits),
            "total_bits": _big(point.total_bits),
        }
        for point in symbolic.predict_points(model.name, ns, config)
    ]
    print()
    print(format_table(rows, title="closed-form extrapolation"))
    return 0


def _cmd_stats(args) -> int:
    from .engine import ExecutionSpec, RunCache, run_sweep
    from .engine.diff import CATALOG, catalog_factory

    assert args.algorithm in CATALOG  # parser choices mirror the catalog
    config = _catalog_config(args, algorithm=args.algorithm, n=args.n, seed=args.seed)
    observer = {"observer": "metrics", "links": args.links > 0, "profile": args.profile}
    execution = ExecutionSpec(
        engine=args.engine,
        check=args.check,
        observer=observer,
        fault_plan=args.fault_plan,
    )
    cache = RunCache(args.cache) if args.cache else None
    # A one-point sweep, like the daemon's run op, so stats, sweeps and
    # the daemon read and write one cache under one key per point.
    (outcome,) = run_sweep(
        catalog_factory,
        [config],
        workers=1,
        execution=execution,
        cache=cache,
        on_error="raise",
    )
    metrics = outcome.result.metrics
    columns = [
        "round",
        "unicast_messages",
        "broadcast_messages",
        "bulk_messages",
        "message_bits",
        "bulk_bits",
        "max_load_node",
        "max_load_bits",
    ]
    if args.fault_plan is not None or metrics.total_faults:
        columns.append("faults")
    print(
        format_table(
            metrics.per_round_rows(),
            columns=columns,
            title=(
                f"per-round metrics: {args.algorithm} "
                f"(n={metrics.n}, B={metrics.bandwidth}, "
                f"{metrics.engine} engine)"
            ),
        )
    )
    node, load = metrics.max_node_load()
    summary = [
        {"quantity": "rounds", "value": metrics.rounds},
        {"quantity": "messages", "value": metrics.messages},
        {"quantity": "message bits", "value": metrics.message_bits},
        {"quantity": "bulk bits", "value": metrics.bulk_bits},
        {"quantity": f"max node load (node {node})", "value": load},
        {
            "quantity": "routed payload load",
            "value": metrics.routed_payload_load(),
        },
    ]
    if args.fault_plan is not None or metrics.total_faults:
        summary.append(
            {"quantity": "faults (total)", "value": metrics.total_faults}
        )
        for kind in sorted(metrics.faults):
            summary.append(
                {"quantity": f"faults: {kind}", "value": metrics.faults[kind]}
            )
    resilience = metrics.resilience
    if args.resilient or resilience:
        for key in sorted(resilience) or ("retransmits", "unacked"):
            summary.append(
                {
                    "quantity": f"resilience: {key}",
                    "value": resilience.get(key, 0),
                }
            )
    print()
    print(format_table(summary, title="run totals"))
    if args.links > 0:
        print()
        print(
            format_table(
                [
                    {"src": src, "dst": dst, "bits": bits}
                    for src, dst, bits in metrics.busiest_links(args.links)
                ],
                title=f"busiest links (top {args.links})",
            )
        )
    if args.profile:
        # A cache hit replays the timings of the run that warmed it.
        cached = ", from cache" if outcome.from_cache else ""
        total = sum(metrics.phases.values()) or 1.0
        print()
        print(
            format_table(
                [
                    {
                        "phase": phase,
                        "seconds": round(secs, 6),
                        "share": f"{100 * secs / total:.1f}%",
                    }
                    for phase, secs in sorted(
                        metrics.phases.items(), key=lambda kv: -kv[1]
                    )
                ],
                title=f"phase profile (wall clock{cached})",
            )
        )
    if cache is not None:
        print()
        print(
            f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"({cache.root})"
        )
    return 0


def _cmd_trace(args) -> int:
    from .engine import ExecutionSpec, batch_execution
    from .engine.diff import CATALOG, catalog_factory
    from .engine.pool import run_spec
    from .obs import JSONLSink, RingBufferSink, Tracer

    assert args.algorithm in CATALOG  # parser choices mirror the catalog
    # The tracer's sink lives in this process, and a cache hit would
    # emit no events, so trace runs the point directly (no run_sweep).
    config = _catalog_config(args, algorithm=args.algorithm, n=args.n, seed=args.seed)
    if args.jsonl:
        sink = JSONLSink(args.jsonl)
    else:
        sink = RingBufferSink(capacity=max(args.limit, 1))
    tracer = Tracer(sink=sink, sample=args.sample)
    execution = batch_execution(
        ExecutionSpec(engine=args.engine, check=args.check, observer=tracer)
    )
    result, _ = run_spec(catalog_factory(config), execution=execution)
    if args.jsonl:
        print(
            f"{args.algorithm}: {result.rounds} rounds; wrote "
            f"{sink.emitted} events to {args.jsonl}"
        )
        return 0
    events = sink.events()
    rows = [
        {
            "event": e.kind,
            "round": e.round,
            "src": "-" if e.src is None else e.src,
            "dst": "-" if e.dst is None else e.dst,
            "bits": "-" if e.bits is None else e.bits,
            "channel": e.channel or "-",
            "detail": "" if e.detail is None else str(e.detail),
        }
        for e in events
    ]
    dropped = sink.dropped
    title = (
        f"trace: {args.algorithm} (n={args.n}, {execution.engine} engine, "
        f"last {len(rows)} events"
        + (f", {dropped} earlier dropped" if dropped else "")
        + ")"
    )
    print(format_table(rows, title=title))
    return 0


def _cmd_sweep(args) -> int:
    from .analysis.fitting import fit_exponent
    from .engine import ExecutionSpec, RunCache, batch_execution, run_sweep
    from .engine.diff import CATALOG, catalog_factory

    assert args.algorithm in CATALOG  # parser choices mirror the catalog

    configs = [
        _catalog_config(args, algorithm=args.algorithm, n=n, seed=s)
        for n in args.ns
        for s in range(args.seeds)
    ]

    execution = batch_execution(
        ExecutionSpec(
            engine=args.engine, check=args.check, fault_plan=args.fault_plan
        )
    )
    cache = RunCache(args.cache) if args.cache else None
    outcomes = run_sweep(
        catalog_factory,
        configs,
        workers=args.workers,
        execution=execution,
        cache=cache,
        base_seed=args.base_seed,
        timeout=args.timeout,
        retries=args.retries,
    )

    rows = [
        {
            "n": o.config["n"],
            "seed": o.config["seed"],
            "rounds": "FAILED" if o.failed else o.result.rounds,
            "message bits": "-" if o.failed else o.result.total_message_bits,
            "payload load (bits)": (
                "-" if o.failed else _measured_load(o.result)
            ),
            "cached": "yes" if o.from_cache else "-",
        }
        for o in outcomes
    ]
    print(
        format_table(
            rows,
            title=f"sweep: {args.algorithm} ({execution.engine} engine, "
            f"{len(configs)} grid points)",
        )
    )
    if cache is not None:
        print(
            f"\ncache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"({cache.root})"
        )
    failures = [o for o in outcomes if o.failed]
    for o in failures:
        print(f"FAILED: {o.error}", file=sys.stderr)

    # Fitted exponents: mean rounds (and payload load, when measured)
    # per clique size, least-squares in log-log space.
    fits = []
    by_n: dict[int, list] = {}
    for o in outcomes:
        if not o.failed:
            by_n.setdefault(o.config["n"], []).append(o)
    ns = sorted(by_n)
    if len(ns) >= 2:
        mean_rounds = [
            sum(o.result.rounds for o in by_n[n]) / len(by_n[n]) for n in ns
        ]
        fit = fit_exponent(ns, [max(1, round(r)) for r in mean_rounds])
        fits.append(
            {
                "quantity": "rounds",
                "exponent (fit)": round(fit.slope, 3),
                "r^2": round(fit.r_squared, 4),
            }
        )
        mean_load = [
            sum(_measured_load(o.result) for o in by_n[n]) / len(by_n[n])
            for n in ns
        ]
        if all(load > 0 for load in mean_load):
            fit = fit_exponent(ns, [max(1, round(load)) for load in mean_load])
            fits.append(
                {
                    "quantity": "payload load (implied delta ~ fit - 1)",
                    "exponent (fit)": round(fit.slope, 3),
                    "r^2": round(fit.r_squared, 4),
                }
            )
    if fits:
        print()
        print(format_table(fits, title="fitted exponents (log-log)"))
    else:
        print("\n(need >= 2 distinct n for an exponent fit)")
    return 1 if failures else 0


def _cmd_bench(args) -> int:
    from .bench import SUITE, compare_bench, default_output_path, run_suite

    if args.bench_command == "list":
        print(
            format_table(
                [
                    {
                        "workload": w.name,
                        "description": w.description,
                        "budget (s)": w.time_budget,
                        "quick budget (s)": w.quick_time_budget,
                    }
                    for w in SUITE.values()
                ],
                title=f"benchmark suite ({len(SUITE)} workloads)",
            )
        )
        return 0

    if args.bench_command == "compare":
        comparison = compare_bench(args.old, args.new, tolerance=args.tolerance)
        if args.markdown:
            print(comparison.markdown_table())
        else:
            print(
                format_table(comparison.rows(), title=comparison.summary())
            )
        return 0 if comparison.ok else 1

    assert args.bench_command == "run"
    report = run_suite(
        args.only,
        quick=args.quick,
        repeats=args.repeats,
        warmup=args.warmup,
        time_budget=args.budget,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    out = args.out if args.out else default_output_path(report.git_sha)
    path = report.write(out)
    print(
        format_table(
            report.rows(),
            title=(
                f"bench: {len(report.results)} workloads @ {report.git_sha}"
                f"{' (quick)' if report.quick else ''}"
            ),
        )
    )
    print(f"\nwrote {path}")
    return 0


def _cmd_serve(args) -> int:
    from .service import ServiceClient, ServiceError, serve

    if args.status or args.stop:
        client = ServiceClient(args.socket)
        try:
            if args.status:
                status = client.status()
                cache = status.pop("cache")
                pool = status.pop("pool")
                counters = status.pop("counters")
                rows = (
                    [{"key": k, "value": v} for k, v in status.items()]
                    + [
                        {"key": f"counters.{k}", "value": v}
                        for k, v in counters.items()
                    ]
                    + [
                        {"key": f"cache.{k}", "value": v}
                        for k, v in cache.items()
                    ]
                    + [
                        {"key": f"pool.{k}", "value": v}
                        for k, v in pool.items()
                    ]
                )
                print(format_table(rows, title="repro serve status"))
            if args.stop:
                client.shutdown()
                print("daemon stopping")
        except ServiceError as exc:
            print(f"repro serve: {exc}", file=sys.stderr)
            return 2
        return 0
    try:
        serve(
            args.socket,
            workers=args.workers,
            queue_size=args.queue_size,
            cache_root=args.cache,
            cache_max_entries=args.cache_max_entries,
            cache_max_entry_bytes=args.cache_max_entry_bytes,
        )
    except ServiceError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def _cmd_demo(args) -> int:
    import pathlib
    import runpy

    script = (
        pathlib.Path(__file__).resolve().parent.parent.parent
        / "examples"
        / _DEMOS[args.name]
    )
    if not script.exists():
        print(
            f"example {script} not found (demos need the source checkout)",
            file=sys.stderr,
        )
        return 2
    runpy.run_path(str(script), run_name="__main__")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    command = {
        "figure1": _cmd_figure1,
        "miniature": _cmd_miniature,
        "counting": _cmd_counting,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "stats": _cmd_stats,
        "predict": _cmd_predict,
        "trace": _cmd_trace,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "demo": _cmd_demo,
    }[args.command]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except CliqueError as exc:
        # A bad name, spec or plan, or a run that broke the model: the
        # message says which (with a did-you-mean hint where one fits).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``repro sweep ... | head``).
        # Point the descriptor at /dev/null so the interpreter's exit
        # flush of what is still buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
