"""Unit tests for the deterministic fault plan (the pure hash oracle)."""

import numpy as np
import pytest

from repro.clique.bits import BitString
from repro.clique.errors import CliqueError
from repro.engine import ExecutionSpec
from repro.faults import FaultPlan, resolve_fault_plan


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(CliqueError, match="drop_rate"):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(CliqueError, match="crash_rate"):
            FaultPlan(crash_rate=-0.1)

    def test_restart_must_be_at_least_one_round(self):
        with pytest.raises(CliqueError, match="crash_restart_rounds"):
            FaultPlan(crash_restart_rounds=0)
        assert FaultPlan(crash_restart_rounds=1).crash_restart_rounds == 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"drop_rate": "x"}, "drop_rate must be a real number"),
            ({"drop_rate": True}, "drop_rate must be a real number"),
            ({"byzantine_rate": None}, "byzantine_rate must be a real number"),
            ({"seed": "a"}, "seed must be an int"),
            ({"seed": 1.5}, "seed must be an int"),
            ({"seed": True}, "seed must be an int"),
            ({"byzantine_f": 1.0}, "byzantine_f must be an int"),
            ({"byzantine": 1}, "byzantine must be a string"),
        ],
    )
    def test_field_types_are_checked(self, fields, message):
        with pytest.raises(CliqueError, match=message):
            FaultPlan(**fields)
        # The JSON route (the daemon, the execution spec's dict form)
        # fails the same way, never with a bare TypeError.
        with pytest.raises(CliqueError, match=message):
            ExecutionSpec.from_dict({"fault_plan": fields})

    def test_equal_plans_share_one_description(self):
        as_int = FaultPlan(drop_rate=1, seed=3)
        assert as_int.describe() == FaultPlan(drop_rate=1.0, seed=3).describe()
        assert FaultPlan(seed=np.int64(3)) == FaultPlan(seed=3)

    def test_zero_rate_detection(self):
        assert FaultPlan().is_zero
        assert FaultPlan(seed=99).is_zero
        assert not FaultPlan(drop_rate=0.1).is_zero
        assert not FaultPlan(link_failure_rate=1.0).is_zero


class TestSpecParsing:
    def test_aliases_cover_every_knob(self):
        plan = FaultPlan.from_spec(
            "drop=0.2, corrupt=0.01, dup=0.05, link=0.1, crash=0.02, "
            "restart=3, seed=7"
        )
        assert plan == FaultPlan(
            seed=7,
            drop_rate=0.2,
            corrupt_rate=0.01,
            duplicate_rate=0.05,
            link_failure_rate=0.1,
            crash_rate=0.02,
            crash_restart_rounds=3,
        )

    def test_long_names_work_too(self):
        assert FaultPlan.from_spec("drop_rate=0.5") == FaultPlan(drop_rate=0.5)

    def test_empty_spec_is_the_zero_plan(self):
        assert FaultPlan.from_spec("").is_zero

    def test_bad_key_rejected(self):
        with pytest.raises(CliqueError, match="spec entry"):
            FaultPlan.from_spec("frobnicate=1")

    def test_bad_value_rejected(self):
        with pytest.raises(CliqueError, match="value"):
            FaultPlan.from_spec("drop=lots")

    def test_resolve_fault_plan(self):
        assert resolve_fault_plan(None) is None
        plan = FaultPlan(drop_rate=0.5)
        assert resolve_fault_plan(plan) is plan
        assert resolve_fault_plan("drop=0.5") == plan
        with pytest.raises(CliqueError):
            resolve_fault_plan(42)


class TestDeterminism:
    GRID = [
        (r, s, d)
        for r in range(1, 6)
        for s in range(5)
        for d in range(5)
        if s != d
    ]

    def test_decisions_replay_exactly(self):
        plan = FaultPlan(seed=3, drop_rate=0.3, corrupt_rate=0.3)
        first = [(plan.drops(r, s, d), plan.corrupts(r, s, d)) for r, s, d in self.GRID]
        second = [
            (plan.drops(r, s, d), plan.corrupts(r, s, d))
            for r, s, d in self.GRID
        ]
        assert first == second

    def test_seed_changes_the_schedule(self):
        a = FaultPlan(seed=0, drop_rate=0.5)
        b = FaultPlan(seed=1, drop_rate=0.5)
        assert [a.drops(*p) for p in self.GRID] != [b.drops(*p) for p in self.GRID]

    def test_empirical_rate_is_roughly_honoured(self):
        plan = FaultPlan(seed=7, drop_rate=0.5)
        draws = [
            plan.drops(r, s, d)
            for r in range(1, 21)
            for s in range(10)
            for d in range(10)
            if s != d
        ]
        rate = sum(draws) / len(draws)
        assert 0.4 < rate < 0.6

    def test_rate_zero_never_fires_rate_one_always_fires(self):
        zero = FaultPlan()
        one = FaultPlan(drop_rate=1.0)
        for point in self.GRID:
            assert not zero.drops(*point)
            assert one.drops(*point)


class TestLinkAndNodeFaults:
    def test_link_down_is_unordered(self):
        plan = FaultPlan(seed=2, link_failure_rate=0.5)
        for a in range(6):
            for b in range(6):
                if a != b:
                    assert plan.link_down(a, b) == plan.link_down(b, a)

    def test_permanent_crash_never_heals(self):
        plan = FaultPlan(seed=1, crash_rate=0.2)
        for node in range(8):
            downs = [plan.node_down(r, node) for r in range(1, 25)]
            if True in downs:
                first = downs.index(True)
                assert all(downs[first:])

    def test_crash_restart_heals_after_the_window(self):
        plan = FaultPlan(seed=0, crash_rate=1.0, crash_restart_rounds=2)
        # Rate 1 retriggers every round, so the node is always down;
        # the healing logic shows with a window ending before `round`.
        assert plan.node_down(1, 0)
        healing = FaultPlan(seed=0, crash_rate=0.0, crash_restart_rounds=2)
        assert not healing.node_down(5, 0)


class TestCorruption:
    def test_corrupt_payload_flips_exactly_one_bit(self):
        plan = FaultPlan(seed=5, corrupt_rate=1.0)
        payload = BitString(0b1011, 4)
        out = plan.corrupt_payload(1, 0, 1, payload)
        assert len(out) == len(payload)
        assert bin(out.value ^ payload.value).count("1") == 1
        # Deterministic: the same coordinates flip the same bit.
        assert plan.corrupt_payload(1, 0, 1, payload) == out

    def test_corrupt_empty_payload_is_a_no_op(self):
        plan = FaultPlan(seed=5, corrupt_rate=1.0)
        empty = BitString(0, 0)
        assert plan.corrupt_payload(1, 0, 1, empty) == empty


class TestIntrospection:
    def test_describe_is_json_able_and_complete(self):
        import json

        plan = FaultPlan(seed=9, drop_rate=0.1, crash_restart_rounds=4)
        desc = plan.describe()
        assert json.loads(json.dumps(desc)) == desc
        assert desc["seed"] == 9
        assert desc["drop_rate"] == 0.1
        assert desc["crash_restart_rounds"] == 4
        assert desc != FaultPlan(seed=9, drop_rate=0.2).describe()

    def test_repr_mentions_active_rates(self):
        assert "drop_rate" in repr(FaultPlan(drop_rate=0.3))
        assert "zero-rate" in repr(FaultPlan())
