"""Bracha and Dolev broadcast: agreement/validity under the seeded
Byzantine adversary, fixed round schedules, and engine identity."""

import pytest

from repro.clique.algorithm import run_algorithm
from repro.clique.errors import CliqueError
from repro.clique.graph import CliqueGraph
from repro.engine import NATIVE_RESILIENT, ExecutionSpec, run_matrix
from repro.engine.diff import catalog_factory
from repro.engine.pool import run_spec
from repro.faults import BYZANTINE_BEHAVIOURS, FaultPlan

ENGINES = ("reference", "fast", "columnar")
VALUE = 0xB5


def _run(name, engine, *, n, f, plan=None, check=None, **point):
    config = {"algorithm": name, "n": n, "f": f, **point}
    result, _ = run_spec(
        catalog_factory(config),
        execution=ExecutionSpec(engine=engine, fault_plan=plan, check=check),
    )
    return result


def _honest_outputs(result, plan, n):
    byzantine = plan.byzantine_nodes(n) if plan is not None else frozenset()
    return {v: result.outputs[v] for v in range(n) if v not in byzantine}


class TestParams:
    def test_validation(self):
        g = CliqueGraph.from_edges(8, [])
        from repro.algorithms import bracha_broadcast, dolev_broadcast

        for algo in (bracha_broadcast, dolev_broadcast):

            def prog(node, _algo=algo, **kw):
                return (yield from _algo(node, **kw))

            with pytest.raises(CliqueError, match="broadcaster"):
                run_algorithm(
                    lambda node: prog(node, broadcaster=8), g, bandwidth=10
                )
            with pytest.raises(CliqueError, match="f must be"):
                run_algorithm(lambda node: prog(node, f=-1), g, bandwidth=10)
            with pytest.raises(CliqueError, match="value_width"):
                run_algorithm(
                    lambda node: prog(node, value_width=63), g, bandwidth=65
                )

    def test_catalog_registration(self):
        assert NATIVE_RESILIENT == {"bracha", "dolev"}


class TestFaultFree:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bracha_everyone_accepts_in_f_plus_5_rounds(self, engine):
        result = _run("bracha", engine, n=9, f=2)
        assert result.rounds == 2 + 5
        assert set(result.outputs.values()) == {VALUE}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dolev_everyone_accepts_in_2_rounds(self, engine):
        result = _run("dolev", engine, n=9, f=2)
        assert result.rounds == 2
        assert set(result.outputs.values()) == {VALUE}


class TestBrachaAgreement:
    @pytest.mark.parametrize("behaviour", BYZANTINE_BEHAVIOURS)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_agreement_under_each_behaviour(self, behaviour, seed):
        n, f = 10, 3  # f < n/3
        plan = FaultPlan(
            seed=seed, byzantine=behaviour, byzantine_f=f, byzantine_rate=0.6
        )
        result = _run("bracha", "reference", n=n, f=f, plan=plan)
        honest = _honest_outputs(result, plan, n)
        assert len(set(honest.values())) == 1  # agreement
        # Validity: if the broadcaster is honest, honest nodes accept
        # its value (otherwise agreement on any value, -1 included).
        if 0 not in plan.byzantine_nodes(n):
            assert set(honest.values()) == {VALUE}

    def test_agreement_under_combined_behaviours(self):
        n, f = 10, 3
        plan = FaultPlan(
            seed=4,
            byzantine="+".join(BYZANTINE_BEHAVIOURS),
            byzantine_f=f,
            byzantine_rate=0.6,
        )
        result = _run("bracha", "reference", n=n, f=f, plan=plan)
        honest = _honest_outputs(result, plan, n)
        assert len(set(honest.values())) == 1

    def test_byzantine_fault_counters_surface(self):
        n, f = 9, 2
        plan = FaultPlan(
            seed=1,
            byzantine="equivocate+selective",
            byzantine_f=f,
            byzantine_rate=0.8,
        )
        result = _run("bracha", "reference", n=n, f=f, plan=plan)
        byz = result.metrics.byzantine_faults
        assert byz and all(k.startswith("byz_") for k in byz)
        assert byz == {
            k: v
            for k, v in result.metrics.faults.items()
            if k.startswith("byz_")
        }


class TestDolev:
    def test_validity_with_lying_relayers(self):
        # Honest broadcaster, f=2 forging/equivocating relayers, n=8
        # (>= 2f + 2): every honest node still gathers f+1 disjoint
        # paths for the true value.
        n, f = 8, 2
        checked = 0
        for seed in range(6):
            plan = FaultPlan(
                seed=seed,
                byzantine="equivocate+forge",
                byzantine_f=f,
                byzantine_rate=1.0,
            )
            if 0 in plan.byzantine_nodes(n):
                continue
            result = _run("dolev", "reference", n=n, f=f, plan=plan)
            honest = _honest_outputs(result, plan, n)
            assert set(honest.values()) == {VALUE}, f"seed={seed}"
            checked += 1
        assert checked >= 3  # the sweep genuinely exercised the claim


class TestEngineIdentity:
    @pytest.mark.parametrize("name", sorted(NATIVE_RESILIENT))
    def test_diff_resilient_across_all_engines(self, name):
        cells = run_matrix(
            [name],
            {"n": 9, "f": 2, "seed": 0},
            engines=ENGINES,
            fault_plan=(
                "byzantine=equivocate+forge+selective+limited,"
                "f=2,seed=11,byz_rate=0.4,limit=3"
            ),
        )
        assert [c.column.split("@")[0] for c in cells] == list(ENGINES)
        assert all(c.leg == "byzantine" and not c.wrapped for c in cells)
        assert all(c.ok for c in cells), [c.summary() for c in cells]
        # The adversary fired, so the full-metrics comparison covered
        # non-empty per-behaviour fault counters.
        assert cells[0].result.metrics.faults

    @pytest.mark.parametrize("check", ("bandwidth", "full"))
    def test_check_levels_do_not_perturb(self, check):
        plan = FaultPlan(
            seed=3,
            byzantine="equivocate+selective",
            byzantine_f=2,
            byzantine_rate=0.5,
        )
        base = _run("bracha", "reference", n=9, f=2, plan=plan)
        for engine in ENGINES:
            run = _run("bracha", engine, n=9, f=2, plan=plan, check=check)
            assert run.rounds == base.rounds
            assert run.total_message_bits == base.total_message_bits
            assert run.outputs == base.outputs
