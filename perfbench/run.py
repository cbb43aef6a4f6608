"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-catalog --seed 1 --seconds 15 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs one timed pass of whole op cycles for ``--seconds`` of op
time, checks every op against the committed oracle and prints the
end-to-end metrics.  ``--trace 1`` runs a shorter traced pass of all
four workloads, records spans around every call into a layer, prints a
per-layer self-time table and reports the per-layer metrics.  The last
line of standard output is always one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run detail (raw and
calibrated timings, spans) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback

# Hash-seeded structures must iterate identically in every run and in
# every process the workload starts, so fix the hash seed first.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

import numpy as np  # noqa: E402

from common import (  # noqa: E402
    DEFINITION,
    OUT_DIR,
    SETTINGS,
    SRC,
    program_env,
    use_program_source,
)

#: Hard wall-clock limit of one invocation.
DEADLINE_S = 170


def fail(message: str) -> "None":
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_probe() -> None:
    """Import the program's public surface in a fresh interpreter."""
    subprocess.run(
        [sys.executable, "-c",
         "import repro.engine, repro.faults, repro.obs, repro.service"],
        env=program_env(),
        check=True,
    )


def timed_pass(workload, seconds: float, tracer, calibrator) -> list:
    """Repeat whole op cycles until ``seconds`` of op time have passed."""
    from calib import Meter
    from workloads import Record

    meter = Meter(calibrator, SETTINGS["slice_s"])
    records: list[Record] = []
    spent = 0.0
    cycle = 0
    while spent < seconds:
        for op in workload.ops:
            arg = op.prepare()
            with tracer.span("bench.op", op=tracer.new_op()):
                error = value = None
                t0 = time.perf_counter()
                try:
                    value = op.run(arg)
                except Exception:  # a failing op is counted, not fatal
                    error = traceback.format_exc(limit=3)
                raw = time.perf_counter() - t0
                with tracer.span("bench.check"):
                    try:
                        ok = 0 if error else op.check(value)
                    except Exception:  # a malformed output is a mismatch
                        ok, error = 0, traceback.format_exc(limit=3)
            record = Record(op.label, op.count, ok, raw, cycle, error=error)
            if isinstance(value, dict):
                record.cached = value.get("cached")
            records.append(record)
            meter.add(record)
            spent += raw
        cycle += 1
    meter.close()
    return records


def pass_metrics(records: list, per_request: bool) -> dict:
    """End-to-end timings of a pass, in raw and calibrated form.

    A per-request workload's percentiles are over its requests.  The
    others run a few mixed-size ops per cycle, where a percentile over
    single ops flips between op classes; their ``op_pXX_ms`` is one
    cycle's time with every op at the XXth percentile of its class,
    divided by the cycle's operations.
    """
    out = {}
    ops = sum(r.count for r in records)
    classes: dict[str, list] = {}
    for r in records:
        classes.setdefault(r.label, []).append(r)
    per_cycle = sum(rs[0].count for rs in classes.values())
    for form in ("raw", "scaled"):
        def t(r):
            return r.raw * (r.scale if form == "scaled" else 1.0)

        out[form] = {"ops_per_s": ops / sum(t(r) for r in records)}
        for q in (50, 90):
            if per_request:
                value = np.percentile([t(r) * 1e3 for r in records], q)
            else:
                value = sum(
                    np.percentile([t(r) for r in rs], q) for rs in classes.values()
                ) / per_cycle * 1e3
            out[form][f"op_p{q}_ms"] = float(value)
    return out


def _parent_of(pid: int) -> "int | None":
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return None  # gone, or not ours to read


def _peak_kib(pid: "int | str") -> int:
    """A process's peak resident set (``VmHWM``), 0 if it has gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def program_peak_rss_mb(workload, calibrator) -> float:
    """Largest peak RSS among the processes that run the program.

    Those are this process when the workload runs program code in it,
    and every live descendant (pool workers, the daemon and its
    children) except the calibration helpers.  Call it before the
    workload closes, while they are still alive.
    """
    children: dict = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            children.setdefault(_parent_of(int(entry)), []).append(int(entry))
    skip = calibrator.pids
    ours: list[int] = []
    stack = [os.getpid()]
    while stack:
        for pid in children.get(stack.pop(), ()):
            if pid not in skip:
                ours.append(pid)
                stack.append(pid)
    peaks = [_peak_kib(pid) for pid in ours]
    if workload.in_process:
        peaks.append(_peak_kib("self"))
    if not any(peaks):
        raise RuntimeError("no program process to measure peak RSS of")
    return max(peaks) / 1024


def make(name: str, seed: int, tracer):
    from oracle import Oracle
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, tracer, Oracle())


def setup_times(workload, reps: int, calibrator) -> dict:
    """Set the workload up ``reps`` times; the last set-up stays live."""
    from calib import timed_scaled

    raws, scaled = [], []
    for i in range(reps):
        if i:
            workload.undo_setup()

        def once():
            import_probe()
            workload.setup()

        raw, sc = timed_scaled(calibrator, once)
        raws.append(raw)
        scaled.append(sc)
    return {
        "raw": statistics.median(raws),
        "scaled": statistics.median(scaled),
        "reps": list(zip(raws, scaled)),
    }


def timed_run(args) -> dict:
    from calib import Calibrator
    from spans import NullTracer

    workload = make(args.workload, args.seed, NullTracer())
    calibrator = Calibrator(workload.cores)
    try:
        setup = setup_times(workload, SETTINGS["setup_reps"], calibrator)
        records = timed_pass(workload, args.seconds, NullTracer(), calibrator)
        rss = program_peak_rss_mb(workload, calibrator)
    finally:
        workload.close()
        calibrator.close()
    forms = pass_metrics(records, workload.per_request)
    for form in forms:
        forms[form]["setup_s"] = setup[form]
    attempted = sum(r.count for r in records)
    ok = sum(r.ok for r in records)
    measured = {"peak_rss_mb": rss, "ok_frac": ok / attempted}
    for name, form in SETTINGS["forms"].items():
        measured[name] = forms[form][name]
    chosen = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in DEFINITION["end_to_end"]
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "forms": forms,
        "peak_rss_mb": rss,
        "cycles": 1 + max(r.cycle for r in records),
        "calibration_s": calibrator.log,
        "setup_reps": setup["reps"],
        "records": [[r.label, r.count, r.raw, r.scale, r.cycle] for r in records],
        "errors": sorted({r.error for r in records if r.error}),
        "mismatched": sorted({r.label for r in records if r.ok < r.count}),
    }
    print_table(args.workload, chosen, forms)
    return {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": chosen,
        "detail": detail,
    }


def traced_run(args) -> dict:
    """Traced passes of every workload, plus the untraced twin of one."""
    from calib import Calibrator
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    seconds = max(1.0, args.seconds * SETTINGS["trace_share"])
    path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    path.unlink(missing_ok=True)
    metrics: dict = {}
    attempted = ok = 0
    tables = {}
    errors: set = set()
    for name in WORKLOADS:
        tracer = Tracer(name)
        workload = make(name, args.seed, tracer)
        calibrator = Calibrator(workload.cores)
        try:
            with tracer.span("bench.setup", op=tracer.new_op()):
                import_probe()
                workload.setup()
            if name == args.workload:
                workload.tracer = NullTracer()
                plain = timed_pass(workload, seconds, NullTracer(), calibrator)
                workload.tracer = tracer
            records = timed_pass(workload, seconds, tracer, calibrator)
            with tracer.span("bench.probes", op=tracer.new_op()):
                layer = workload.probes(records)
        finally:
            workload.close()
            calibrator.close()
        if name == args.workload:
            untraced = pass_metrics(plain, workload.per_request)["scaled"]
            traced = pass_metrics(records, workload.per_request)["scaled"]
            frac = 1 - traced["ops_per_s"] / untraced["ops_per_s"]
            metrics["trace.overhead_frac"] = {"value": frac, "unit": "ratio"}
            records = plain + records
        for key, (value, unit) in layer.items():
            metrics[f"{workload.prefix}.{key}"] = {"value": value, "unit": unit}
        attempted += sum(r.count for r in records)
        ok += sum(r.ok for r in records)
        errors |= {r.error for r in records if r.error}
        tables[name] = tracer.self_times()
        tracer.write(path)
    for name, table in tables.items():
        print(f"\nself time by layer: {name}")
        print(f"  {'layer':24s} {'spans':>7s} {'total_s':>10s} {'self_s':>10s}")
        for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(
                f"  {layer:24s} {row['count']:7d} {row['total_s']:10.4f}"
                f" {row['self_s']:10.4f}"
            )
    print(f"\nspans written to {path}")
    wanted = [m["name"] for m in DEFINITION["per_layer"]]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"traced run did not measure {missing}")
    metrics = {name: metrics[name] for name in wanted}
    print_table("per-layer (traced run)", metrics, None)
    return {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
        "detail": {"workload": args.workload, "seed": args.seed,
                   "errors": sorted(errors), "self_times": tables},
    }


def print_table(title: str, chosen: dict, forms: "dict | None") -> None:
    print(f"\n{title}")
    for name, m in chosen.items():
        line = f"  {name:34s} {m['value']:>16.6g} {m['unit']}"
        if forms and name in forms["raw"]:
            line += (
                f"   (raw {forms['raw'][name]:.6g},"
                f" calibrated {forms['scaled'][name]:.6g})"
            )
        print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in DEFINITION["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC}; run from the root of a checkout")
    use_program_source()
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import the program: {exc}")
    signal.signal(signal.SIGALRM, lambda *_: fail(f"over {DEADLINE_S}s, giving up"))
    signal.alarm(DEADLINE_S)
    OUT_DIR.mkdir(exist_ok=True)
    result = traced_run(args) if args.trace else timed_run(args)
    signal.alarm(0)
    detail = result.pop("detail")
    suffix = "trace" if args.trace else "run"
    with open(OUT_DIR / f"{suffix}-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({**detail, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
