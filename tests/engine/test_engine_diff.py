"""Differential tests: every backend must be observationally
equivalent to the reference backend on the whole algorithm catalog,
checked through the one differential matrix."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.diff as diff
from repro.clique.errors import CliqueError
from repro.engine import (
    CATALOG,
    FastEngine,
    catalog_factory,
    compare,
    run_matrix,
    run_spec,
)
from repro.engine.diff import COLUMNAR_FAULT_PLANS
from repro.clique.network import _outputs_equal


def _assert_ok(cells):
    assert all(c.ok for c in cells), [c.summary() for c in cells if not c.ok]


class TestCatalogAgreement:
    @pytest.mark.parametrize("algorithm", sorted(CATALOG))
    def test_reference_and_fast_agree(self, algorithm):
        base, fast = run_matrix([algorithm], {"n": 8, "seed": 3})
        _assert_ok([base, fast])
        assert (base.column, fast.column) == ("reference@full", "fast@bandwidth")
        assert base.baseline is None and fast.baseline == "reference@full"
        assert base.result.rounds == fast.result.rounds

    @pytest.mark.parametrize("algorithm", ["broadcast", "bfs", "kds", "subgraph"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_agreement_across_seeds(self, algorithm, seed):
        _assert_ok(run_matrix([algorithm], {"n": 9, "seed": seed}))

    def test_catalog_covers_required_families(self):
        # The acceptance criterion: at least eight distinct families.
        assert len(CATALOG) >= 8
        for name in (
            "broadcast",
            "bfs",
            "apsp",
            "matmul",
            "kds",
            "kvc",
            "subgraph",
            "sorting",
        ):
            assert name in CATALOG

    def test_diff_catalog_all_ok(self):
        cells = run_matrix(config={"n": 6, "seed": 1})
        assert len(cells) == 2 * len(CATALOG)
        assert sorted({c.algorithm for c in cells}) == sorted(CATALOG)
        _assert_ok(cells)

    def test_fast_check_levels_agree(self):
        engines = ["reference"] + [
            FastEngine(check=check) for check in ("full", "bandwidth")
        ]
        cells = run_matrix(["bfs"], {"n": 8, "seed": 0}, engines=engines)
        assert [c.column for c in cells] == [
            "reference@full",
            "fast@full",
            "fast@bandwidth",
        ]
        _assert_ok(cells)

    def test_mismatch_is_reported(self):
        (base,) = run_matrix(["broadcast"], {"n": 6, "seed": 0}, engines=["reference"])
        (other,) = run_matrix(["broadcast"], {"n": 6, "seed": 1}, engines=["fast"])
        issues = compare(base, other)
        assert issues
        # Each mismatch names both sides, whichever engine the base is.
        assert all("reference@full=" in m and "fast@bandwidth=" in m for m in issues)
        assert compare(other, other) == []
        other.mismatches = issues
        assert not other.ok and "MISMATCH" in other.summary()

    def test_fast_fault_delta_drift_is_a_mismatch(self, monkeypatch):
        # A fast engine that books one fault into a round's delta but
        # leaves every total alone must fail the gate.
        def drifted(spec, *, execution):
            result, value = run_spec(spec, execution=execution)
            if execution.engine.name == "fast":
                m = result.metrics
                first = dataclasses.replace(m.per_round[0], faults=1)
                m = dataclasses.replace(m, per_round=(first, *m.per_round[1:]))
                result = dataclasses.replace(result, metrics=m)
            return result, value

        monkeypatch.setattr(diff, "run_spec", drifted)
        base, fast = run_matrix(["fanout"], {"n": 6})
        assert base.ok and not fast.ok
        assert any(m.startswith("metrics round 1:") for m in fast.mismatches)


class TestMatrixRunsEachCellOnce:
    @pytest.mark.parametrize(
        "plans", [(None, "drop=0.2,seed=4", COLUMNAR_FAULT_PLANS[0]), "drop=0.2,seed=4"]
    )
    def test_one_run_per_distinct_cell(self, monkeypatch, plans):
        calls = []

        def counting(spec, *, execution):
            calls.append(execution.engine)
            return run_spec(spec, execution=execution)

        monkeypatch.setattr(diff, "run_spec", counting)
        cells = run_matrix(
            ["fanout", "bfs", "kds"],
            {"n": 6},
            engines=("reference", "fast", "columnar", FastEngine(check="full")),
            fault_plan=plans,
            symbolic=True,
        )
        _assert_ok(cells)
        runs = [c for c in cells if c.result is not None]
        assert len(calls) == len(runs)
        keys = {(c.algorithm, c.column, c.plan, c.wrapped) for c in runs}
        assert len(keys) == len(runs)
        # One fault-free baseline per entry, shared by the symbolic row
        # and (for bfs) the wrapped leg's output check.
        for name in ("fanout", "bfs", "kds"):
            free = [c for c in runs if c.algorithm == name and c.plan is None]
            assert free and free[0].baseline is None
        symbolic = [c.algorithm for c in cells if c.column == "symbolic"]
        assert symbolic == ["fanout", "bfs", "kds"]
        # kds sits out every faulty leg; columnar skips generator entries.
        assert not [c for c in runs if c.algorithm == "kds" and c.plan is not None]
        assert not [c for c in runs if c.algorithm == "bfs" and "columnar" in c.column]


# Faulty legs the fuzzer draws from: drop-only (the wrapped entries
# join), rewriting, crashing and Byzantine; the drawn seed is appended.
_FUZZ_PLANS = (
    "drop=0.2",
    "drop=0.2,corrupt=0.1,duplicate=0.1",
    "drop=0.2,link=0.05,crash=0.05,restart=2",
    "byzantine=equivocate+forge+selective+limited,f=1,byz_rate=0.4,limit=3",
)


class TestMatrixFuzz:
    """Random catalog configs through the full matrix: every column and,
    for entries that join faulty legs, a drawn fault plan."""

    @settings(max_examples=300, deadline=None)
    @given(
        algorithm=st.sampled_from(sorted(CATALOG)),
        # From n=3 up: the resilient frame header needs a budget of
        # more than 3 bits, and n=2 gives the wrapped entries only 2.
        n=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
        multiplier=st.integers(min_value=2, max_value=4),
        plan=st.sampled_from(_FUZZ_PLANS),
        plan_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_cell_agrees(self, algorithm, n, seed, multiplier, plan, plan_seed):
        cells = run_matrix(
            [algorithm],
            {"n": n, "seed": seed, "bandwidth_multiplier": multiplier},
            engines=("reference", "fast", "columnar"),
            fault_plan=(None, f"{plan},seed={plan_seed}"),
        )
        _assert_ok(cells)
        assert cells and cells[0].plan is None


class TestShuffleInvariance:
    """Message delivery is an unordered set: permuting the order in
    which one round's messages land must not change any output."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sorting_invariant_under_delivery_permutation(self, seed):
        config = {"algorithm": "sorting", "n": 6, "seed": 4}
        baseline, _ = run_spec(catalog_factory(dict(config)), execution="fast")
        shuffled, _ = run_spec(
            catalog_factory(dict(config)),
            execution=FastEngine(shuffle_seed=seed),
        )
        assert shuffled.rounds == baseline.rounds
        assert sorted(shuffled.outputs) == sorted(baseline.outputs)
        for v in baseline.outputs:
            assert _outputs_equal(shuffled.outputs[v], baseline.outputs[v])
        assert shuffled.total_message_bits == baseline.total_message_bits

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_bfs_invariant_under_delivery_permutation(self, seed):
        config = {"algorithm": "bfs", "n": 8, "seed": 2}
        baseline, _ = run_spec(catalog_factory(dict(config)), execution="reference")
        shuffled, _ = run_spec(
            catalog_factory(dict(config)),
            execution=FastEngine(shuffle_seed=seed),
        )
        assert shuffled.rounds == baseline.rounds
        for v in baseline.outputs:
            assert _outputs_equal(shuffled.outputs[v], baseline.outputs[v])


class TestCatalogFactory:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(CliqueError, match="unknown catalog algorithm"):
            catalog_factory({"algorithm": "nope"})

    def test_specs_are_self_contained(self):
        spec = catalog_factory({"algorithm": "broadcast", "n": 5, "seed": 0})
        assert spec.resolved_n() == 5

    @pytest.mark.parametrize(
        "name, k", [("kds", 0), ("kds", -1), ("kis", 0), ("kvc", -1)]
    )
    def test_out_of_range_k_rejected(self, name, k):
        with pytest.raises(CliqueError, match=f"{name} needs k >= "):
            catalog_factory({"algorithm": name, "n": 8, "k": k})

    def test_smallest_k_accepted(self):
        for name, k in (("kds", 1), ("kis", 1), ("kvc", 0)):
            catalog_factory({"algorithm": name, "n": 8, "k": k})
