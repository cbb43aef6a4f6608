"""The deterministic benchmark runner and the ``BENCH_*.json`` artifact.

One timing implementation for the whole repository: :func:`measure`
(warmup + best/median-of-k wall clock) is shared by :func:`run_suite`
and the acceptance gates in ``benchmarks/test_engine_throughput.py``.

:func:`run_suite` executes the registered workloads with pinned seeds
under a per-workload time budget, records the process peak RSS, and
returns a :class:`BenchReport` — a schema-versioned, machine-readable
artifact carrying the environment fingerprint (python/numpy versions,
CPU count), per-workload wall clock, and the deterministic payload
(rounds, total bits) read from each run's ``RunMetrics``.  Write it with
:meth:`BenchReport.write`; the conventional location is
``BENCH_<git-sha>.json`` at the repository root
(:func:`default_output_path`).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..clique.errors import CliqueError
from .workloads import Workload, get_workloads

__all__ = [
    "BenchReport",
    "SCHEMA_VERSION",
    "Timing",
    "WorkloadTiming",
    "default_output_path",
    "environment_fingerprint",
    "git_sha",
    "measure",
    "run_suite",
]

#: Bump on any change to the artifact layout; ``compare_bench`` refuses
#: to ratchet across schema versions.
SCHEMA_VERSION = 1


@dataclass
class Timing:
    """Raw wall-clock samples of one repeated measurement."""

    times: list[float]
    result: Any = None

    @property
    def best(self) -> float:
        return min(self.times)

    @property
    def median(self) -> float:
        return statistics.median(self.times)


def measure(
    work: Callable[[], Any],
    repeats: int = 5,
    warmup: int = 1,
    time_budget: "float | None" = None,
) -> Timing:
    """Time ``work()`` ``repeats`` times after ``warmup`` untimed calls.

    With a ``time_budget`` (seconds) the repeat loop stops early once
    the cumulative measured time exceeds it — every workload yields at
    least one sample, so a budget can truncate but never skip.  Returns
    the samples plus the last call's return value.
    """
    if repeats < 1:
        raise CliqueError(f"repeats must be >= 1, not {repeats}")
    result = None
    for _ in range(warmup):
        result = work()
    times: list[float] = []
    spent = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
        if time_budget is not None and spent >= time_budget:
            break
    return Timing(times=times, result=result)


def _max_rss_kb() -> "int | None":
    """Process peak RSS in KiB (POSIX only; ``None`` where unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    if platform.system() == "Darwin":  # pragma: no cover - linux CI
        usage //= 1024
    return int(usage)


def environment_fingerprint() -> dict:
    """The machine/toolchain facts a timing is only comparable within.

    ``cpu_count`` is the machine; ``cpu_affinity`` the cores this
    process may actually use (cgroup/taskset clamps show up only here),
    which is what sweep pool sizing goes by.
    """
    import numpy

    from ..engine.pool import available_cpus

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": available_cpus(),
    }


def git_sha(root: "str | os.PathLike | None" = None) -> str:
    """The current commit hash (short), or ``"unknown"`` outside git."""
    override = os.environ.get("REPRO_BENCH_SHA")
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def default_output_path(
    sha: "str | None" = None, root: "str | os.PathLike" = "."
) -> Path:
    """``BENCH_<git-sha>.json`` under ``root`` (the repository root by
    convention — the artifact trajectory CI and reviewers read)."""
    return Path(root) / f"BENCH_{sha if sha is not None else git_sha()}.json"


@dataclass
class WorkloadTiming:
    """One workload's measured entry in a :class:`BenchReport`.

    ``seconds`` (the median sample) is the quantity the ratchet
    compares; ``info`` is the workload's deterministic payload and must
    be identical across runs on the same tree.
    """

    name: str
    seconds: float
    best: float
    times: list[float]
    repeats: int
    warmup: int
    truncated: bool
    params: dict
    info: dict
    max_rss_kb: "int | None" = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "best": self.best,
            "times": list(self.times),
            "repeats": self.repeats,
            "warmup": self.warmup,
            "truncated": self.truncated,
            "params": self.params,
            "info": self.info,
            "max_rss_kb": self.max_rss_kb,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadTiming":
        return cls(**data)


@dataclass
class BenchReport:
    """The schema-versioned ``BENCH_*.json`` payload."""

    git_sha: str
    quick: bool
    environment: dict
    results: dict[str, WorkloadTiming]
    created: str = ""
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "git_sha": self.git_sha,
            "quick": self.quick,
            "created": self.created,
            "environment": self.environment,
            "results": {
                name: timing.to_dict()
                for name, timing in sorted(self.results.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchReport":
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise CliqueError(
                f"unsupported bench schema {schema!r} (expected "
                f"{SCHEMA_VERSION}); regenerate with 'repro bench run'"
            )
        return cls(
            git_sha=data["git_sha"],
            quick=data["quick"],
            environment=dict(data["environment"]),
            results={
                name: WorkloadTiming.from_dict(entry)
                for name, entry in data["results"].items()
            },
            created=data.get("created", ""),
            schema=schema,
        )

    def write(self, path: "str | os.PathLike") -> Path:
        """Serialise to ``path`` as stable, human-diffable JSON."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "BenchReport":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliqueError(
                f"cannot read bench report {path}: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        return cls.from_dict(data)

    def rows(self) -> list[dict]:
        """Table rows (one per workload) for the CLI report."""
        return [
            {
                "workload": t.name,
                "median (ms)": round(t.seconds * 1e3, 3),
                "best (ms)": round(t.best * 1e3, 3),
                "reps": f"{len(t.times)}/{t.repeats}"
                + ("!" if t.truncated else ""),
                "rounds": t.info.get("rounds", "-"),
                "total bits": t.info.get("total_bits", "-"),
            }
            for _, t in sorted(self.results.items())
        ]


def _run_workload(
    workload: Workload,
    *,
    quick: bool,
    repeats: int,
    warmup: int,
    time_budget: "float | None",
) -> WorkloadTiming:
    params = workload.resolved_params(quick)
    budget = (
        time_budget
        if time_budget is not None
        else workload.resolved_budget(quick)
    )
    timing = measure(
        lambda: workload.run(params),
        repeats=repeats,
        warmup=warmup,
        time_budget=budget,
    )
    return WorkloadTiming(
        name=workload.name,
        seconds=timing.median,
        best=timing.best,
        times=timing.times,
        repeats=repeats,
        warmup=warmup,
        truncated=len(timing.times) < repeats,
        params=params,
        info=dict(timing.result),
        max_rss_kb=_max_rss_kb(),
    )


def run_suite(
    names: "list[str] | None" = None,
    *,
    quick: bool = False,
    repeats: "int | None" = None,
    warmup: int = 1,
    time_budget: "float | None" = None,
    progress: "Callable[[str], None] | None" = None,
) -> BenchReport:
    """Run the (selected) suite and return the report.

    ``quick`` switches every workload to its reduced parameters and
    budget (the CI configuration); ``repeats`` defaults to median-of-5
    (median-of-3 in quick mode).  ``progress`` receives one line per
    finished workload.
    """
    if repeats is None:
        repeats = 3 if quick else 5
    results: dict[str, WorkloadTiming] = {}
    for workload in get_workloads(names):
        entry = _run_workload(
            workload,
            quick=quick,
            repeats=repeats,
            warmup=warmup,
            time_budget=time_budget,
        )
        results[workload.name] = entry
        if progress is not None:
            progress(
                f"{workload.name}: {entry.seconds * 1e3:.2f} ms median "
                f"({len(entry.times)} rep(s))"
            )
    return BenchReport(
        git_sha=git_sha(),
        quick=quick,
        environment=environment_fingerprint(),
        results=results,
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
