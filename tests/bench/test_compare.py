"""The ratchet: classification, rendering, and the synthetic-regression
gate the CI bench job depends on."""

import dataclasses
import json
import time

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    SUITE,
    Workload,
    compare_bench,
    run_suite,
)
from repro.cli import main
from repro.clique.errors import CliqueError


def synthetic_report(seconds_by_name, sha="0000000caffe"):
    """A minimal artifact dict with the given median per workload."""
    return {
        "schema": SCHEMA_VERSION,
        "git_sha": sha,
        "quick": True,
        "created": "",
        "environment": {"python": "x"},
        "results": {
            name: {
                "name": name,
                "seconds": seconds,
                "best": seconds,
                "times": [seconds],
                "repeats": 1,
                "warmup": 0,
                "truncated": False,
                "params": {},
                "info": {"rounds": 1, "total_bits": 1},
            }
            for name, seconds in seconds_by_name.items()
        },
    }


class TestClassification:
    def test_statuses(self):
        old = synthetic_report(
            {"a": 1.0, "b": 1.0, "c": 1.0, "gone": 1.0}, sha="oldsha"
        )
        new = synthetic_report(
            {"a": 1.05, "b": 2.0, "c": 0.5, "fresh": 1.0}, sha="newsha"
        )
        verdict = compare_bench(old, new, tolerance=1.25)
        by_name = {e.name: e.status for e in verdict.entries}
        assert by_name == {
            "a": "stable",
            "b": "regressed",
            "c": "improved",
            "gone": "removed",
            "fresh": "added",
        }
        assert not verdict.ok
        assert [e.name for e in verdict.regressions] == ["b"]

    def test_ratio_exactly_at_tolerance_is_stable(self):
        old = synthetic_report({"a": 1.0})
        new = synthetic_report({"a": 1.25})
        assert compare_bench(old, new, tolerance=1.25).ok

    def test_added_and_removed_never_regress(self):
        old = synthetic_report({"gone": 1.0})
        new = synthetic_report({"fresh": 99.0})
        verdict = compare_bench(old, new, tolerance=1.1)
        assert verdict.ok
        assert {e.status for e in verdict.entries} == {"added", "removed"}

    def test_zero_baseline_counts_as_regression(self):
        old = synthetic_report({"a": 0.0})
        new = synthetic_report({"a": 0.001})
        assert not compare_bench(old, new, tolerance=2.0).ok

    def test_bad_tolerance_rejected(self):
        report = synthetic_report({"a": 1.0})
        with pytest.raises(CliqueError, match="tolerance"):
            compare_bench(report, report, tolerance=1.0)
        with pytest.raises(CliqueError, match="improved_threshold"):
            compare_bench(report, report, improved_threshold=0.0)

    def test_unsupported_source_rejected(self):
        with pytest.raises(CliqueError, match="bench report"):
            compare_bench(42, synthetic_report({"a": 1.0}))

    def test_quick_and_full_reports_are_not_compared(self):
        quick = synthetic_report({"a": 1.0})
        full = dict(synthetic_report({"a": 1.0}), quick=False)
        with pytest.raises(CliqueError, match="old report is quick .* full"):
            compare_bench(quick, full)
        with pytest.raises(CliqueError, match="old report is full .* quick"):
            compare_bench(full, quick)
        assert compare_bench(full, full).ok

    def test_fingerprints_are_not_compared(self):
        old = synthetic_report({"a": 1.0})
        new = dict(synthetic_report({"a": 1.0}), environment={"python": "y"})
        assert compare_bench(old, new).ok


class TestCliCompareErrors:
    """Bad ``repro bench compare`` input exits 2 with a message, never a
    traceback."""

    def _write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_mode_mismatch_exits_2(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", synthetic_report({"a": 1.0}))
        new = self._write(
            tmp_path, "new.json", dict(synthetic_report({"a": 1.0}), quick=False)
        )
        assert main(["bench", "compare", old, new]) == 2
        err = capsys.readouterr().err
        assert "mode mismatch" in err and "quick" in err and "full" in err

    def test_bad_tolerance_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, "r.json", synthetic_report({"a": 1.0}))
        code = main(["bench", "compare", path, path, "--tolerance", "0.5"])
        assert code == 2
        assert "tolerance must be > 1.0" in capsys.readouterr().err


class TestRendering:
    def test_summary_names_shas_and_verdict(self):
        old = synthetic_report({"a": 1.0}, sha="oldsha")
        new = synthetic_report({"a": 5.0}, sha="newsha")
        summary = compare_bench(old, new, tolerance=1.4).summary()
        assert "oldsha..newsha" in summary
        assert "REGRESSED" in summary
        assert "1 regressed" in summary

    def test_markdown_table_bolds_regressions(self):
        old = synthetic_report({"a": 1.0, "b": 1.0})
        new = synthetic_report({"a": 5.0, "b": 1.0})
        table = compare_bench(old, new, tolerance=1.4).markdown_table()
        assert "| workload |" in table
        assert "**regressed**" in table
        assert "`a`" in table and "`b`" in table

    def test_rows_order_regressions_first(self):
        old = synthetic_report({"a": 1.0, "z": 1.0})
        new = synthetic_report({"a": 1.0, "z": 9.0})
        rows = compare_bench(old, new, tolerance=1.4).rows()
        assert rows[0]["workload"] == "z"
        assert rows[0]["status"] == "regressed"


class TestSyntheticSlowdownGate:
    """The CI acceptance criterion: a 2x slowdown of one workload must
    fail a tolerance-1.4 comparison (and the CLI must exit non-zero)."""

    NAME = "codec/bool-row"

    def _slowed_suite(self, monkeypatch, factor=2.0):
        original = SUITE[self.NAME]

        def slowed(params):
            start = time.perf_counter()
            info = original.run(params)
            time.sleep((time.perf_counter() - start) * (factor - 1.0))
            return info

        monkeypatch.setitem(
            SUITE,
            self.NAME,
            Workload(
                name=original.name,
                description=original.description,
                run=slowed,
                params=original.params,
                quick_params=original.quick_params,
            ),
        )

    def test_two_x_slowdown_fails_the_ratchet(self, monkeypatch):
        baseline = run_suite([self.NAME], quick=True, repeats=3)
        self._slowed_suite(monkeypatch, factor=2.5)
        slowed = run_suite([self.NAME], quick=True, repeats=3)
        verdict = compare_bench(baseline, slowed, tolerance=1.4)
        assert not verdict.ok, verdict.summary()
        assert verdict.regressions[0].name == self.NAME

    def test_cli_compare_exits_nonzero_on_regression(self, tmp_path, capsys):
        # The real timed slowdown is test_two_x_slowdown_fails_the_ratchet;
        # here the "new" report is the measured baseline with every
        # recorded timing scaled by 2.5, so the exit code cannot depend
        # on how steady the host's clock is.
        baseline = run_suite([self.NAME], quick=True, repeats=3)
        baseline.write(tmp_path / "old.json")
        timing = baseline.results[self.NAME]
        slowed = dataclasses.replace(
            timing,
            seconds=timing.seconds * 2.5,
            best=timing.best * 2.5,
            times=[t * 2.5 for t in timing.times],
        )
        dataclasses.replace(baseline, results={self.NAME: slowed}).write(
            tmp_path / "new.json"
        )
        code = main(
            [
                "bench",
                "compare",
                str(tmp_path / "old.json"),
                str(tmp_path / "new.json"),
                "--tolerance",
                "1.4",
            ]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().out
