"""Engine benchmarking: named workloads, timed runs, regression ratchet.

The paper's claims are round/bit complexity bounds; the ROADMAP's
north-star adds "as fast as the hardware allows".  This package makes
the second claim testable the way the first already is — as versioned,
machine-readable artifacts:

* :mod:`repro.bench.workloads` — the suite registry (:data:`SUITE`):
  stable, named workloads with pinned seeds for the rows the external
  end-to-end yardstick (``perfbench/``) cannot show — the paired
  fan-out rows behind the README's speedup ratios (reference vs. fast,
  columnar vs. fast), the metrics-overhead twin, relay routing, honest
  Bracha broadcast, the bit codecs and the symbolic cost-model gate;
* :mod:`repro.bench.runner` — the deterministic runner: warmup +
  median-of-k wall clock under per-workload time budgets, environment
  fingerprint, peak RSS; emits the schema-versioned ``BENCH_*.json``
  artifact (:class:`BenchReport`);
* :mod:`repro.bench.compare` — :func:`compare_bench`, the ratchet that
  classifies each workload as improved/stable/regressed against a
  committed baseline and renders the markdown table CI publishes.

Layering: ``repro.bench`` sits at the top of the stack — it drives
``repro.engine`` (``run_spec``), reads ``repro.obs.RunMetrics``, and
nothing imports it back.

Quickstart::

    from repro.bench import compare_bench, run_suite

    report = run_suite(quick=True)
    report.write("BENCH_dev.json")
    verdict = compare_bench("benchmarks/baseline.json", "BENCH_dev.json",
                            tolerance=1.4)
    print(verdict.summary())
    assert verdict.ok

or from the command line: ``repro bench run --quick``, ``repro bench
compare benchmarks/baseline.json BENCH_dev.json``; ``repro bench run
--quick --out benchmarks/baseline.json`` refreshes the committed
baseline.
"""

from .compare import BenchComparison, WorkloadComparison, compare_bench
from .runner import (
    SCHEMA_VERSION,
    BenchReport,
    Timing,
    WorkloadTiming,
    default_output_path,
    environment_fingerprint,
    git_sha,
    measure,
    run_suite,
)
from .workloads import (
    SUITE,
    Workload,
    all_to_all_chatter,
    get_workloads,
    register_workload,
)

__all__ = [
    "BenchComparison",
    "BenchReport",
    "SCHEMA_VERSION",
    "SUITE",
    "Timing",
    "Workload",
    "WorkloadComparison",
    "WorkloadTiming",
    "all_to_all_chatter",
    "compare_bench",
    "default_output_path",
    "environment_fingerprint",
    "get_workloads",
    "git_sha",
    "measure",
    "register_workload",
    "run_suite",
]
