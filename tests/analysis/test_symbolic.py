"""The symbolic cost model and its exact cross-validation gate."""

import pytest

from repro.analysis import symbolic
from repro.clique.errors import CliqueError


class TestRegistryCoverage:
    def test_every_catalog_entry_declares_a_registered_model(self):
        from repro.engine.diff import CATALOG, COST_DECLARATIONS

        assert sorted(COST_DECLARATIONS) == sorted(CATALOG)
        assert symbolic.missing_cost_models() == []
        for declared in COST_DECLARATIONS.values():
            assert declared in symbolic.COST_MODELS

    def test_names_sorted(self):
        names = symbolic.cost_model_names()
        assert names == sorted(names) and len(names) >= 13

    def test_duplicate_registration_rejected(self):
        model = symbolic.COST_MODELS["broadcast"]
        with pytest.raises(CliqueError, match="already registered"):
            symbolic.cost_model(model)

    def test_unknown_name_gets_did_you_mean_hint(self):
        with pytest.raises(CliqueError, match="did you mean 'sorting'"):
            symbolic.get_cost_model("sortign")

    def test_unknown_name_without_close_match(self):
        with pytest.raises(CliqueError, match="unknown cost model"):
            symbolic.get_cost_model("zzz-no-such-model")


class TestEvaluation:
    def test_broadcast_closed_form(self):
        point = symbolic.get_cost_model("broadcast").evaluate({"n": 8})
        # B = 2 ceil(log2 8) = 6: ceil(8/6) = 2 rounds, n^2 (n-1) bits.
        assert point.rounds == 2
        assert point.message_bits == 8 * 8 * 7
        assert point.bulk_bits == 0
        assert point.total_bits == point.message_bits

    def test_evaluate_returns_exact_python_ints(self):
        for name in symbolic.cost_model_names():
            point = symbolic.get_cost_model(name).evaluate({"n": 11})
            assert isinstance(point.rounds, int)
            assert isinstance(point.message_bits, int)
            assert isinstance(point.bulk_bits, int)

    def test_domain_pins_win_over_caller_config(self):
        model = symbolic.get_cost_model("routing")
        cfg = model.config({"scheme": "relay", "n": 8})
        assert cfg["scheme"] == "lenzen"

    def test_predict_points_extrapolates_to_a_million(self):
        points = symbolic.predict_points("matmul", [10**6])
        (point,) = points
        assert point.n == 10**6
        assert point.rounds > 0 and point.total_bits > 0

    def test_huge_n_broadcast_is_closed_form_exact(self):
        # B = 2 ceil(log2 10^6) = 40; rounds = ceil(10^6 / 40).
        point = symbolic.get_cost_model("broadcast").evaluate({"n": 10**6})
        assert point.rounds == 25000
        assert point.message_bits == 10**12 * (10**6 - 1)

    def test_describe_model_is_jsonable_text(self):
        import json

        desc = symbolic.describe_model("kds")
        json.dumps(desc)
        assert "ceiling" in desc["rounds"]
        assert desc["algorithm"] == "kds"


class TestValidation:
    def test_full_catalog_exact_gate(self):
        # The acceptance criterion: every catalog algorithm, >= 3 swept
        # n values, zero tolerance on rounds and bit totals.
        report = symbolic.validate_symbolic(engines=("reference",))
        assert report.errors == []
        assert report.ok, report.table()
        per_algo = {}
        for check in report.checks:
            per_algo.setdefault(check.algorithm, set()).add(check.n)
        from repro.engine.diff import CATALOG

        assert sorted(per_algo) == sorted(CATALOG)
        assert all(len(ns) >= 3 for ns in per_algo.values())

    def test_fit_consistency_rows_present(self):
        report = symbolic.validate_symbolic(names=["broadcast"], engines=("reference",))
        assert report.ok
        quantities = {f["quantity"] for f in report.fits}
        assert quantities == {"rounds", "total_bits"}

    def test_fast_engine_agrees_too(self):
        report = symbolic.validate_symbolic(
            names=["fanout", "routing"], ns=(8, 11), engines=("fast",)
        )
        assert report.ok, report.table()

    @pytest.mark.parametrize("name, k", [("kds", 3), ("kis", 2), ("kis", 4)])
    def test_k_enters_the_closed_form(self, name, k):
        report = symbolic.validate_symbolic(
            names=[name], ns=(8, 12, 16), config={"k": k}, engines=("fast",)
        )
        assert report.ok, report.table()

    @pytest.mark.parametrize("name, k", [("kds", 0), ("kis", -1), ("kvc", -1)])
    def test_out_of_range_k_rejected(self, name, k):
        with pytest.raises(CliqueError, match=f"{name} needs k >= "):
            symbolic.predict_points(name, [9], {"k": k})

    def test_mismatch_is_reported_not_swallowed(self):
        # Sabotage one model copy and make sure the gate trips.
        broken = symbolic.CostModel(
            name="broadcast",
            rounds=symbolic.get_cost_model("broadcast").rounds + 1,
            message_bits=symbolic.get_cost_model("broadcast").message_bits,
            bulk_bits=symbolic.get_cost_model("broadcast").bulk_bits,
            binder=symbolic.get_cost_model("broadcast").binder,
        )
        saved = symbolic.COST_MODELS["broadcast"]
        symbolic.COST_MODELS["broadcast"] = broken
        try:
            report = symbolic.validate_symbolic(
                names=["broadcast"], ns=(8,), engines=("reference",)
            )
        finally:
            symbolic.COST_MODELS["broadcast"] = saved
        assert not report.ok
        assert any("rounds" in m for c in report.mismatched for m in c.mismatches)
        assert "FAILURES" in report.summary()

    def test_table_and_markdown_render(self):
        report = symbolic.validate_symbolic(
            names=["dolev"], ns=(8, 11), engines=("reference",)
        )
        text = report.table()
        assert "dolev" in text and "symbolic gate" in text
        md = report.markdown()
        assert md.startswith("## Symbolic cost gate")
        assert "| dolev |" in md


class TestDiffSurfaceFold:
    def test_diff_engines_symbolic_row(self):
        from repro.engine.diff import run_matrix

        base, row = run_matrix(
            ["fanout"], {"n": 8}, engines=("reference",), symbolic=True
        )
        assert base.ok and row.ok, row.summary()
        assert row.column == "symbolic" and row.baseline == "reference@full"
        assert row.result is None
        predicted = symbolic.get_cost_model("fanout").evaluate({"n": 8})
        assert predicted.rounds == base.result.rounds

    def test_diff_engines_symbolic_pins_domain(self):
        from repro.engine.diff import catalog_factory, run_matrix
        from repro.engine.pool import run_spec

        # routing's closed form exists only for the lenzen scheme; the
        # fold must pin it for the engines as well, or the comparison
        # would race two different instances.
        cells = run_matrix(
            ["routing"],
            {"n": 8, "scheme": "relay"},
            engines=("reference", "fast"),
            symbolic=True,
        )
        assert all(c.ok for c in cells), [c.summary() for c in cells]
        lenzen, _ = run_spec(
            catalog_factory({"algorithm": "routing", "n": 8, "scheme": "lenzen"})
        )
        relay, _ = run_spec(catalog_factory({"algorithm": "routing", "n": 8}))
        assert lenzen.rounds != relay.rounds
        assert cells[0].result.rounds == lenzen.rounds

    def test_diff_catalog_symbolic_full(self):
        from repro.engine.diff import run_matrix

        cells = run_matrix(
            ["broadcast", "kvc"],
            {"n": 8},
            engines=("reference",),
            symbolic=True,
        )
        assert all(c.ok for c in cells)
        rows = [c.algorithm for c in cells if c.column == "symbolic"]
        assert rows == ["broadcast", "kvc"]

    def test_diff_engines_symbolic_detects_drift(self):
        from repro.engine.diff import run_matrix

        broken = symbolic.CostModel(
            name="fanout",
            rounds=symbolic.get_cost_model("fanout").rounds,
            message_bits=symbolic.get_cost_model("fanout").message_bits + 1,
            bulk_bits=symbolic.get_cost_model("fanout").bulk_bits,
            binder=symbolic.get_cost_model("fanout").binder,
        )
        saved = symbolic.COST_MODELS["fanout"]
        symbolic.COST_MODELS["fanout"] = broken
        try:
            base, row = run_matrix(
                ["fanout"], {"n": 8}, engines=("reference",), symbolic=True
            )
        finally:
            symbolic.COST_MODELS["fanout"] = saved
        assert base.ok and not row.ok
        assert any(m.startswith("message_bits: predicted=") for m in row.mismatches)

    def test_catalog_factory_did_you_mean(self):
        from repro.engine.diff import catalog_factory

        with pytest.raises(CliqueError, match="did you mean 'matmul'"):
            catalog_factory({"algorithm": "matmull", "n": 8})


class TestLazyExports:
    def test_symbolic_names_reachable_from_package(self):
        import repro.analysis as analysis

        assert analysis.validate_symbolic is symbolic.validate_symbolic
        assert analysis.CostModel is symbolic.CostModel

    def test_unknown_package_attr_raises(self):
        import repro.analysis as analysis

        with pytest.raises(AttributeError):
            analysis.no_such_symbol


class TestBenchWorkload:
    def test_symbolic_validate_workload_runs_and_is_deterministic(self):
        from repro.bench.workloads import get_workloads

        workload = get_workloads(["symbolic-validate"])[0]
        params = workload.resolved_params(quick=True)
        info = workload.run(params)
        assert info["algorithms"] >= 13
        assert info == workload.run(params)
