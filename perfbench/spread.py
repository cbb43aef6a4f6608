"""Run every workload and report its end-to-end metrics and their spread.

Runs ``run.py`` once per seed on each workload, prints every run's
end-to-end metrics with their units and whether all its outputs matched
the oracle, then reports per metric the median and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as
a share of the median, for the reported form and for the raw and the
calibrated seconds.  From the checkout root::

    python3 perfbench/spread.py --seeds 1-10 --seconds 15 [--workload W ...]

``--seeds 1`` is the one command that prints all end-to-end metrics of
all four workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, DEFINITION, OUT_DIR, ROOT

TIMINGS = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms")


def spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(OUT_DIR / f"run-{workload}-{seed}.json", encoding="utf-8") as fh:
        detail = json.load(fh)
    return {"result": result, "forms": detail["forms"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--json", help="also write the report to this file")
    args = parser.parse_args()
    report = {}
    for workload in args.workload or [w["name"] for w in DEFINITION["workloads"]]:
        runs = []
        for seed in seeds_arg(args.seeds):
            t0 = time.perf_counter()
            runs.append(run_once(workload, seed, args.seconds))
            result = runs[-1]["result"]
            cells = "  ".join(
                f"{name} {m['value']:.6g} {m['unit']}"
                for name, m in result["metrics"].items()
            )
            print(
                f"{workload} seed {seed} ({time.perf_counter() - t0:.1f}s wall,"
                f" correct: {result['correct']}): {cells}",
                flush=True,
            )
        rows = {}
        for name in (m["name"] for m in DEFINITION["end_to_end"]):
            rows[name] = {
                "reported": spread(
                    [r["result"]["metrics"][name]["value"] for r in runs]
                )
            }
            if name in TIMINGS:
                for form in ("raw", "scaled"):
                    rows[name][form] = spread([r["forms"][form][name] for r in runs])
        report[workload] = {
            "rows": rows,
            "correct": all(r["result"]["correct"] for r in runs),
        }
        print(f"\n{workload} (correct in every run: {report[workload]['correct']})")
        for name, row in rows.items():
            cells = "  ".join(
                f"{form} med {row[form]['median']:.5g}"
                f" iqr/med {row[form]['spread']:.4f}"
                for form in ("reported", "raw", "scaled")
                if form in row
            )
            print(f"  {name:12s} {cells}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
