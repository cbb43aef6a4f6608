"""ExecutionSpec: coercion, merging, serialisation, cache-key parity,
and the engine registry it resolves through."""

import pytest

from repro.clique.errors import CliqueError
from repro.engine import (
    ExecutionSpec,
    FastEngine,
    RunCache,
    engine_names,
    resolve_execution,
    run_sweep,
)
from repro.engine.base import ENGINES, Engine, register_engine, resolve_engine
from repro.engine.diff import catalog_factory
from repro.faults import FaultPlan
from repro.obs import describe_observer
from repro.service.client import ServiceClient


class TestRegistry:
    def test_engine_names_are_the_registered_backends(self):
        assert engine_names() == ["columnar", "fast", "reference"]
        assert engine_names() == sorted(ENGINES)

    def test_every_engine_name_resolves(self):
        for name in engine_names():
            assert resolve_engine(name).name == name

    def test_unknown_engine_error_lists_everything(self):
        with pytest.raises(CliqueError, match=r"\['columnar', 'fast', 'reference'\]"):
            resolve_engine("sharded")

    def test_unknown_engine_error_suggests_nearest_match(self):
        with pytest.raises(CliqueError, match="did you mean 'columnar'"):
            resolve_engine("columnnar")

    def test_duplicate_registration_is_rejected(self):
        class Clash(Engine):
            name = "fast"

            def execute(self, *args, **kwargs):  # pragma: no cover
                raise AssertionError

        with pytest.raises(CliqueError, match="already taken"):
            register_engine(Clash)
        assert ENGINES["fast"] is not Clash

    def test_empty_name_is_rejected(self):
        class Nameless(Engine):
            name = ""

            def execute(self, *args, **kwargs):  # pragma: no cover
                raise AssertionError

        with pytest.raises(CliqueError, match="empty"):
            register_engine(Nameless)


class TestSpec:
    def test_coerce_variants(self):
        spec = ExecutionSpec(engine="columnar", check="off")
        assert ExecutionSpec.coerce(spec) is spec
        assert ExecutionSpec.coerce(None) == ExecutionSpec()
        assert ExecutionSpec.coerce("fast") == ExecutionSpec(engine="fast")
        assert ExecutionSpec.coerce({"engine": "fast"}) == ExecutionSpec(
            engine="fast"
        )
        with pytest.raises(CliqueError, match="execution must be"):
            ExecutionSpec.coerce(42)

    def test_invalid_check_rejected_at_construction(self):
        with pytest.raises(CliqueError, match="check must be one of"):
            ExecutionSpec(check="sorta")

    def test_merged_fills_unset_fields(self):
        spec = ExecutionSpec(engine="columnar").merged(
            check="off", fault_plan="drop=0.1,seed=2"
        )
        assert spec.engine == "columnar"
        assert spec.check == "off"
        assert spec.fault_plan == "drop=0.1,seed=2"

    def test_merged_agreeing_values_pass(self):
        spec = ExecutionSpec(engine="fast", check="off")
        assert spec.merged(engine="fast", check="off") == spec

    def test_merged_conflicts_raise(self):
        with pytest.raises(CliqueError, match="conflicting execution"):
            ExecutionSpec(engine="fast").merged(engine="columnar")

    def test_dict_round_trip(self):
        spec = ExecutionSpec(
            engine="columnar",
            check="bandwidth",
            observer="metrics",
            fault_plan=FaultPlan(drop_rate=0.25, seed=9),
            transcripts=True,
        )
        data = spec.to_dict()
        assert data["fault_plan"]["drop_rate"] == 0.25
        rebuilt = ExecutionSpec.from_dict(data)
        assert rebuilt == spec

    def test_to_dict_omits_unset_fields(self):
        assert ExecutionSpec().to_dict() == {}
        assert ExecutionSpec(engine="fast").to_dict() == {"engine": "fast"}

    def test_to_dict_rejects_engine_instances(self):
        with pytest.raises(CliqueError, match="cannot be serialised"):
            ExecutionSpec(engine=FastEngine()).to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(CliqueError, match="unknown ExecutionSpec field"):
            ExecutionSpec.from_dict({"enginee": "fast"})

    def test_removed_shards_field_is_rejected(self):
        with pytest.raises(CliqueError) as info:
            ExecutionSpec.from_dict({"engine": "columnar", "shards": 2})
        message = str(info.value)
        assert "unknown ExecutionSpec field(s) ['shards']" in message
        assert (
            "known: ['check', 'engine', 'fault_plan', 'observer', "
            "'transcripts']" in message
        )
        with pytest.raises(TypeError):
            ExecutionSpec(engine="columnar", shards=2)
        with pytest.raises(TypeError):
            resolve_execution("columnar", shards=2)

    def test_unknown_fault_plan_field_names_the_known_fields(self):
        with pytest.raises(CliqueError) as info:
            ExecutionSpec.from_dict({"fault_plan": {"dorp": 0.1}})
        message = str(info.value)
        assert "unknown FaultPlan field(s) ['dorp']" in message
        assert "'drop_rate'" in message and "'byzantine_limit'" in message
        assert message.endswith("did you mean 'drop_rate'?")

    def test_describe_matches_legacy_components(self):
        spec = ExecutionSpec(engine="fast", check="off", observer="metrics")
        desc = spec.describe()
        assert desc["engine"] == resolve_engine("fast", check="off").describe()
        assert desc["observer"] == describe_observer("metrics")
        assert desc["fault_plan"] is None

    def test_resolve_execution_bundles_everything(self):
        resolved = resolve_execution(
            "columnar", check="off", fault_plan="drop=0.1,seed=1"
        )
        assert resolved.engine.name == "columnar"
        assert resolved.engine.check == "off"
        assert resolved.fault_plan == "drop=0.1,seed=1"
        assert resolved.spec.engine == "columnar"

    def test_resolve_execution_conflict_raises(self):
        with pytest.raises(CliqueError, match="conflicting execution"):
            resolve_execution(ExecutionSpec(check="full"), check="off")


class TestCacheKeyRoundTrip:
    """One spec, one key: a cache warmed through the legacy keyword path
    must serve ExecutionSpec-addressed lookups, and vice versa."""

    CONFIGS = [{"algorithm": "fanout", "n": 8, "seed": 0}]

    def test_legacy_kwargs_then_spec_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        first = run_sweep(
            catalog_factory,
            self.CONFIGS,
            workers=1,
            engine=FastEngine(check="bandwidth"),
            cache=cache,
        )
        assert not first[0].from_cache
        second = run_sweep(
            catalog_factory,
            self.CONFIGS,
            workers=1,
            execution=ExecutionSpec(engine="fast", check="bandwidth"),
            cache=cache,
        )
        assert second[0].from_cache
        assert second[0].result.rounds == first[0].result.rounds

    def test_spec_then_legacy_kwargs_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        run_sweep(
            catalog_factory,
            self.CONFIGS,
            workers=1,
            execution={"engine": "fast", "check": "bandwidth"},
            cache=cache,
        )
        again = run_sweep(
            catalog_factory,
            self.CONFIGS,
            workers=1,
            engine=FastEngine(check="bandwidth"),
            cache=cache,
        )
        assert again[0].from_cache

    def test_different_engines_never_share_keys(self, tmp_path):
        cache = RunCache(tmp_path)
        run_sweep(
            catalog_factory,
            self.CONFIGS,
            workers=1,
            execution=ExecutionSpec(engine="fast", check="bandwidth"),
            cache=cache,
        )
        other = run_sweep(
            catalog_factory,
            self.CONFIGS,
            workers=1,
            execution=ExecutionSpec(engine="columnar", check="bandwidth"),
            cache=cache,
        )
        assert not other[0].from_cache

    def test_sweep_spec_conflict_raises(self):
        with pytest.raises(CliqueError, match="conflicting execution"):
            run_sweep(
                catalog_factory,
                self.CONFIGS,
                workers=1,
                engine="reference",
                execution=ExecutionSpec(engine="columnar"),
            )

    def test_sweep_rejects_transcripts_on_the_spec(self):
        with pytest.raises(CliqueError, match="record_transcripts"):
            run_sweep(
                catalog_factory,
                self.CONFIGS,
                workers=1,
                execution=ExecutionSpec(transcripts=True),
            )


class TestServiceClientJSON:
    """Client-side serialisation of execution= into the JSON protocol."""

    def test_payload_round_trips_through_from_dict(self):
        spec = ExecutionSpec(
            engine="columnar",
            check="bandwidth",
            fault_plan=FaultPlan(drop_rate=0.5, seed=3),
        )
        payload = ServiceClient._execution_payload(spec)
        assert payload == spec.to_dict()
        assert ExecutionSpec.from_dict(payload) == spec

    def test_payload_accepts_dict_and_name_shorthand(self):
        assert ServiceClient._execution_payload(None) is None
        assert ServiceClient._execution_payload("columnar") == {
            "engine": "columnar"
        }
        assert ServiceClient._execution_payload({"engine": "fast"}) == {
            "engine": "fast"
        }

    def test_payload_rejects_engine_instances(self):
        with pytest.raises(CliqueError, match="cannot be serialised"):
            ServiceClient._execution_payload(ExecutionSpec(engine=FastEngine()))
