"""The deterministic runner and the BENCH_*.json artifact contract."""

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchReport,
    default_output_path,
    environment_fingerprint,
    git_sha,
    measure,
    run_suite,
)
from repro.clique.errors import CliqueError

#: A stable, fast subset for artifact-shape tests.
SUBSET = ["codec/bool-row", "fanout/fast", "bracha-broadcast"]


class TestMeasure:
    def test_collects_requested_repeats(self):
        timing = measure(lambda: 7, repeats=4, warmup=2)
        assert len(timing.times) == 4
        assert timing.result == 7
        assert timing.best <= timing.median

    def test_time_budget_truncates_but_never_skips(self):
        import time

        timing = measure(lambda: time.sleep(0.02), repeats=50, time_budget=0.05)
        assert 1 <= len(timing.times) < 50

    def test_rejects_zero_repeats(self):
        with pytest.raises(CliqueError, match="repeats"):
            measure(lambda: None, repeats=0)


class TestRunSuite:
    def test_artifact_shape(self):
        report = run_suite(SUBSET, quick=True, repeats=2, warmup=0)
        assert report.schema == SCHEMA_VERSION
        assert report.quick is True
        assert set(report.results) == set(SUBSET)
        for name, timing in report.results.items():
            assert timing.name == name
            assert timing.seconds > 0
            assert len(timing.times) == 2
            assert not timing.truncated
            assert timing.info["rounds"] >= 0
            assert timing.info["total_bits"] > 0
        assert report.rows()[0]["workload"] == sorted(SUBSET)[0]

    def test_environment_fingerprint_recorded(self):
        fingerprint = environment_fingerprint()
        for key in ("python", "numpy", "platform", "cpu_count", "cpu_affinity"):
            assert key in fingerprint
        assert fingerprint["cpu_affinity"] >= 1
        report = run_suite(["codec/bool-row"], repeats=1, warmup=0)
        assert report.environment == fingerprint

    def test_git_sha_recorded(self):
        report = run_suite(["codec/bool-row"], repeats=1, warmup=0)
        assert report.git_sha == git_sha()
        assert report.git_sha != ""

    def test_sha_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHA", "feedface0000")
        assert git_sha() == "feedface0000"

    def test_rss_budget_field_recorded(self):
        report = run_suite(["codec/bool-row"], repeats=1, warmup=0)
        rss = report.results["codec/bool-row"].max_rss_kb
        assert rss is None or rss > 0

    def test_budget_truncation_marked(self):
        report = run_suite(
            ["route/relay"],
            quick=True,
            repeats=50,
            warmup=0,
            time_budget=0.01,
        )
        timing = report.results["route/relay"]
        assert timing.truncated
        assert len(timing.times) < 50


class TestArtifactRoundTrip:
    def test_write_load_round_trip(self, tmp_path):
        report = run_suite(SUBSET, quick=True, repeats=1, warmup=0)
        path = report.write(tmp_path / "BENCH_test.json")
        loaded = BenchReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_artifact_is_plain_json(self, tmp_path):
        report = run_suite(["codec/bool-row"], repeats=1, warmup=0)
        path = report.write(tmp_path / "b.json")
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA_VERSION
        assert "results" in data and "environment" in data

    def test_schema_mismatch_rejected(self, tmp_path):
        report = run_suite(["codec/bool-row"], repeats=1, warmup=0)
        data = report.to_dict()
        data["schema"] = SCHEMA_VERSION + 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(CliqueError, match="schema"):
            BenchReport.load(bad)

    def test_unreadable_artifact_raises_clique_error(self, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        with pytest.raises(CliqueError, match="cannot read"):
            BenchReport.load(garbage)

    def test_default_output_path_uses_sha(self, tmp_path):
        path = default_output_path("abc123def456", root=tmp_path)
        assert path == tmp_path / "BENCH_abc123def456.json"


class TestDeterminism:
    def test_repeated_runs_agree_on_deterministic_payloads(self):
        """Same machine, same tree -> the deterministic payloads are
        identical.  (The wall-clock half of this criterion is timed in
        ``benchmarks/test_engine_throughput.py``, outside tier-1.)"""
        names = ["codec/bool-row", "bracha-broadcast"]
        first = run_suite(names, quick=True, repeats=3)
        second = run_suite(names, quick=True, repeats=3)
        for name in names:
            assert first.results[name].info == second.results[name].info
            assert first.results[name].params == second.results[name].params
