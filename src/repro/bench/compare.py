"""The perf-regression ratchet: compare two ``BENCH_*.json`` artifacts.

:func:`compare_bench` classifies every workload shared by two reports as
``improved`` / ``stable`` / ``regressed`` from the ratio of the median
wall clocks, with workloads present on only one side reported as
``added`` / ``removed`` (never silently dropped).  The verdict object
renders both a CLI table and the markdown table CI appends to the job
summary, and ``ok`` is the single bit the CI bench job gates on.

Timings are only comparable within one machine class, so the tolerance
is generous by design on shared runners (CI uses 1.4x): the ratchet
exists to catch real, order-of-tens-of-percent regressions on the hot
paths, not 2% jitter.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from ..clique.errors import CliqueError
from .runner import BenchReport

__all__ = [
    "BenchComparison",
    "WorkloadComparison",
    "compare_bench",
]

#: Classification vocabulary, in display order.
STATUSES = ("regressed", "added", "removed", "improved", "stable")


@dataclass(frozen=True)
class WorkloadComparison:
    """One workload's verdict.

    ``ratio`` is ``new_seconds / old_seconds`` (``None`` for
    ``added``/``removed`` entries, which have only one side).
    """

    name: str
    status: str
    old_seconds: "float | None" = None
    new_seconds: "float | None" = None
    ratio: "float | None" = None


@dataclass
class BenchComparison:
    """The full ratchet verdict over two reports."""

    old_sha: str
    new_sha: str
    tolerance: float
    improved_threshold: float
    entries: list[WorkloadComparison]

    @property
    def regressions(self) -> list[WorkloadComparison]:
        return [e for e in self.entries if e.status == "regressed"]

    @property
    def ok(self) -> bool:
        """True when no workload regressed past the tolerance."""
        return not self.regressions

    def counts(self) -> dict[str, int]:
        counts = {status: 0 for status in STATUSES}
        for entry in self.entries:
            counts[entry.status] += 1
        return {k: v for k, v in counts.items() if v}

    def rows(self) -> list[dict]:
        """Table rows, regressions first, then by name."""
        order = {status: i for i, status in enumerate(STATUSES)}
        return [
            {
                "workload": e.name,
                "old (ms)": (
                    "-"
                    if e.old_seconds is None
                    else round(e.old_seconds * 1e3, 3)
                ),
                "new (ms)": (
                    "-"
                    if e.new_seconds is None
                    else round(e.new_seconds * 1e3, 3)
                ),
                "ratio": "-" if e.ratio is None else round(e.ratio, 3),
                "status": e.status,
            }
            for e in sorted(self.entries, key=lambda e: (order[e.status], e.name))
        ]

    def summary(self) -> str:
        """One-line verdict for logs and commit statuses."""
        counts = ", ".join(
            f"{count} {status}" for status, count in self.counts().items()
        )
        verdict = "OK" if self.ok else "REGRESSED"
        return (
            f"bench {self.old_sha}..{self.new_sha}: {verdict}"
            f" ({counts or 'no shared workloads'};"
            f" tolerance {self.tolerance:g}x)"
        )

    def markdown_table(self) -> str:
        """A GitHub-flavoured markdown report (for ``$GITHUB_STEP_SUMMARY``)."""
        lines = [
            f"### Benchmark ratchet: `{self.old_sha}` → `{self.new_sha}`",
            "",
            self.summary(),
            "",
            "| workload | old (ms) | new (ms) | ratio | status |",
            "| --- | ---: | ---: | ---: | --- |",
        ]
        for row in self.rows():
            status = row["status"]
            if status == "regressed":
                status = f"**{status}**"
            lines.append(
                f"| `{row['workload']}` | {row['old (ms)']} |"
                f" {row['new (ms)']} | {row['ratio']} | {status} |"
            )
        return "\n".join(lines) + "\n"


def _as_report(source: Any) -> BenchReport:
    """Coerce a path / dict / :class:`BenchReport` into a report."""
    if isinstance(source, BenchReport):
        return source
    if isinstance(source, dict):
        return BenchReport.from_dict(source)
    if isinstance(source, (str, os.PathLike)):
        return BenchReport.load(source)
    raise CliqueError(
        f"cannot interpret {type(source).__name__} as a bench report "
        f"(expected a path, a dict, or a BenchReport)"
    )


def compare_bench(
    old: Any,
    new: Any,
    tolerance: float = 1.25,
    *,
    improved_threshold: float = 0.8,
) -> BenchComparison:
    """Classify every workload of ``new`` against the ``old`` baseline.

    A workload is ``regressed`` when its median slowed by more than
    ``tolerance`` (ratio > tolerance), ``improved`` when it sped up past
    ``improved_threshold``, and ``stable`` otherwise.  ``old``/``new``
    accept file paths, parsed dicts, or :class:`BenchReport` instances.

    A quick report and a full one run different parameters, so their
    timings are incomparable: a mode mismatch raises
    :class:`~repro.clique.errors.CliqueError`.  Environment fingerprints
    are not checked — the committed baseline comes from another machine.
    """
    if tolerance <= 1.0:
        raise CliqueError(f"tolerance must be > 1.0, not {tolerance}")
    if not 0.0 < improved_threshold <= 1.0:
        raise CliqueError(
            f"improved_threshold must be in (0, 1], not {improved_threshold}"
        )
    old_report = _as_report(old)
    new_report = _as_report(new)
    if old_report.quick != new_report.quick:
        modes = ["quick" if r.quick else "full" for r in (old_report, new_report)]
        raise CliqueError(
            f"bench mode mismatch: the old report is {modes[0]} and the new "
            f"one is {modes[1]}; compare reports recorded in the same mode"
        )
    entries: list[WorkloadComparison] = []
    for name in sorted(set(old_report.results) | set(new_report.results)):
        before = old_report.results.get(name)
        after = new_report.results.get(name)
        if before is None:
            entries.append(
                WorkloadComparison(name=name, status="added", new_seconds=after.seconds)
            )
            continue
        if after is None:
            entries.append(
                WorkloadComparison(
                    name=name, status="removed", old_seconds=before.seconds
                )
            )
            continue
        ratio = (after.seconds / before.seconds if before.seconds > 0 else float("inf"))
        if ratio > tolerance:
            status = "regressed"
        elif ratio < improved_threshold:
            status = "improved"
        else:
            status = "stable"
        entries.append(
            WorkloadComparison(
                name=name,
                status=status,
                old_seconds=before.seconds,
                new_seconds=after.seconds,
                ratio=ratio,
            )
        )
    return BenchComparison(
        old_sha=old_report.git_sha,
        new_sha=new_report.git_sha,
        tolerance=tolerance,
        improved_threshold=improved_threshold,
        entries=entries,
    )
