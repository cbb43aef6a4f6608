"""The suite registry: coverage, determinism, and registration rules."""

import json
from pathlib import Path

import pytest

from repro.bench import SUITE, Workload, get_workloads, register_workload
from repro.clique.errors import CliqueError


def run_once(workload, quick=True):
    """Execute one workload iteration."""
    return workload.run(workload.resolved_params(quick))


class TestRegistry:
    def test_expected_workloads_present(self):
        expected = {
            "fanout/reference",
            "fanout/fast",
            "fanout/fast-noobs",
            "route/relay",
            "codec/bool-row",
            "bulk-codec",
            "columnar-fanout",
            "fanout-large/fast",
            "bracha-broadcast",
            "symbolic-validate",
        }
        assert expected == set(SUITE)

    def test_baseline_rows_are_the_suite(self):
        # The committed ratchet baseline has one row per workload: a row
        # for a deleted workload, or a workload with no row, would show
        # up as "removed"/"added" in every `repro bench compare`.
        path = Path(__file__).parents[2] / "benchmarks" / "baseline.json"
        rows = json.loads(path.read_text())["results"]
        assert sorted(rows) == sorted(SUITE)

    def test_suite_spans_both_engines(self):
        engines = {
            w.params["execution"]["engine"]
            for w in SUITE.values()
            if "execution" in w.params
        }
        assert "reference" in engines and "fast" in engines
        # One spelling: no workload carries a flat engine or fault plan.
        for w in SUITE.values():
            assert "engine" not in w.params and "fault_plan" not in w.params

    def test_get_workloads_preserves_selection_order(self):
        names = ["codec/bool-row", "fanout/fast"]
        assert [w.name for w in get_workloads(names)] == names

    def test_get_workloads_default_is_whole_suite(self):
        assert [w.name for w in get_workloads()] == list(SUITE)

    def test_unknown_workload_rejected(self):
        with pytest.raises(CliqueError, match="unknown workload"):
            get_workloads(["nope/never"])

    def test_duplicate_registration_rejected(self):
        name = next(iter(SUITE))
        with pytest.raises(CliqueError, match="already registered"):
            register_workload(
                Workload(name=name, description="dup", run=lambda p: {})
            )

    def test_quick_params_merge_over_full(self):
        workload = SUITE["fanout/fast"]
        full = workload.resolved_params(quick=False)
        quick = workload.resolved_params(quick=True)
        assert quick["execution"] == full["execution"]
        assert quick["n"] < full["n"]


class TestExecution:
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_runs_in_quick_mode_with_deterministic_payload(self, name):
        workload = SUITE[name]
        first = run_once(workload)
        second = run_once(workload)
        assert "rounds" in first and "total_bits" in first
        assert first == second  # the payload the determinism gate relies on

    def test_fanout_engines_agree_on_payload(self):
        reference = run_once(SUITE["fanout/reference"])
        fast = run_once(SUITE["fanout/fast"])
        assert reference == fast
