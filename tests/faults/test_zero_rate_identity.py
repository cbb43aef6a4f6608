"""Property test: a zero-rate fault plan is observationally identical to
running with no plan at all, on both engines, across the diff catalog.

This pins down the injection layer's "do no harm" contract: attaching an
injector must not perturb delivery order, accounting, metrics, or
outputs unless a fault actually fires.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique.network import _outputs_equal
from repro.engine import ExecutionSpec
from repro.engine.diff import catalog_factory
from repro.engine.pool import run_spec
from repro.faults import FaultPlan

#: Cheap-to-run catalog algorithms spanning both the plain message
#: channel and the bulk/router path (which a plan must leave alone).
NAMES = ("bfs", "broadcast", "kvc", "kds", "subgraph")


def assert_observationally_identical(a, b):
    assert a.rounds == b.rounds
    assert a.total_message_bits == b.total_message_bits
    assert a.bulk_bits == b.bulk_bits
    assert a.sent_bits == b.sent_bits
    assert a.received_bits == b.received_bits
    assert a.counters == b.counters
    assert sorted(a.outputs) == sorted(b.outputs)
    for v in a.outputs:
        assert _outputs_equal(a.outputs[v], b.outputs[v])
    a_metrics = None if a.metrics is None else a.metrics.to_dict()
    b_metrics = None if b.metrics is None else b.metrics.to_dict()
    assert a_metrics == b_metrics


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    n=st.integers(6, 10),
    seed=st.integers(0, 3),
    plan_seed=st.integers(0, 2**32 - 1),
    engine=st.sampled_from(["reference", "fast"]),
)
def test_zero_rate_plan_is_the_identity(name, n, seed, plan_seed, engine):
    config = {"algorithm": name, "n": n, "seed": seed}
    plan = FaultPlan(seed=plan_seed)
    assert plan.is_zero
    bare, _ = run_spec(catalog_factory(dict(config)), execution=engine)
    planned, _ = run_spec(
        catalog_factory(dict(config)),
        execution=ExecutionSpec(engine=engine, fault_plan=plan),
    )
    assert_observationally_identical(bare, planned)
    assert planned.metrics.faults == {}


def test_zero_rate_spec_string_is_the_identity_too():
    config = {"algorithm": "bfs", "n": 9, "seed": 1}
    for engine in ("reference", "fast"):
        bare, _ = run_spec(catalog_factory(dict(config)), execution=engine)
        planned, _ = run_spec(
            catalog_factory(dict(config)),
            execution=ExecutionSpec(engine=engine, fault_plan="seed=5"),
        )
        assert_observationally_identical(bare, planned)
