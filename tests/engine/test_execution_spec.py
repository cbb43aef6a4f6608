"""ExecutionSpec: coercion, merging, serialisation, the batch default,
cache-key parity across entry points, and the engine registry it
resolves through."""

import json

import pytest

from repro.cli import main
from repro.clique import run_algorithm
from repro.clique.errors import CliqueError
from repro.clique.network import CongestedClique
from repro.engine import (
    BATCH_ENGINE,
    ExecutionSpec,
    FastEngine,
    RunCache,
    batch_execution,
    engine_names,
    resolve_execution,
    run_spec,
    run_sweep,
)
from repro.engine.base import ENGINES, Engine, register_engine, resolve_engine
from repro.engine.diff import catalog_factory
from repro.faults import FaultPlan
from repro.obs import describe_observer
from repro.service import ReproServer
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
        spec = ExecutionSpec(engine="columnar", check="full")
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
            check="full", fault_plan="drop=0.1,seed=2"
        )
        assert spec.engine == "columnar"
        assert spec.check == "full"
        assert spec.fault_plan == "drop=0.1,seed=2"

    def test_merged_agreeing_values_pass(self):
        spec = ExecutionSpec(engine="fast", check="full")
        assert spec.merged(engine="fast", check="full") == spec

    def test_merged_conflicts_raise(self):
        with pytest.raises(CliqueError, match="conflicting execution"):
            ExecutionSpec(engine="fast").merged(engine="columnar")

    def test_dict_round_trip(self):
        spec = ExecutionSpec(
            engine="columnar",
            check="bandwidth",
            observer={"observer": "metrics", "links": True, "profile": False},
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
        # The three cache-key components are the engine's, the
        # observer's and the fault plan's own descriptions.
        spec = ExecutionSpec(engine="fast", check="full", observer=None)
        desc = spec.describe()
        assert desc["engine"] == resolve_engine("fast", check="full").describe()
        assert desc["observer"] == describe_observer(None)
        assert desc["fault_plan"] is None

    def test_resolve_execution_bundles_everything(self):
        resolved = resolve_execution(
            ExecutionSpec(engine="columnar", check="full", fault_plan="drop=0.1,seed=1")
        )
        assert resolved.engine.name == "columnar"
        assert resolved.engine.check == "full"
        assert resolved.fault_plan == FaultPlan(drop_rate=0.1, seed=1)
        # Resolution keeps the cache key: same description before and after.
        assert resolved.describe() == ExecutionSpec(
            engine="columnar", check="full", fault_plan="drop=0.1,seed=1"
        ).describe()

    def test_resolve_execution_conflict_raises(self):
        # The spec is the only input: a keyword beside it is refused
        # outright instead of being merged.
        assert resolve_execution().engine.name == "reference"
        with pytest.raises(TypeError):
            resolve_execution(ExecutionSpec(check="full"), check="bandwidth")

    def test_batch_default_fills_only_an_unset_engine(self):
        assert BATCH_ENGINE == "fast"
        assert batch_execution(None) == ExecutionSpec(engine=BATCH_ENGINE)
        spec = batch_execution({"check": "full", "observer": False})
        assert spec == ExecutionSpec(engine="fast", check="full", observer=False)
        named = ExecutionSpec(engine="reference")
        assert batch_execution(named) is named
        engine = FastEngine(check="full")
        assert batch_execution(engine).engine is engine


class TestCacheKeyRoundTrip:
    """One spec, one key: every entry point that reads the run cache
    builds the same key for the same point and execution."""

    CONFIGS = [{"algorithm": "fanout", "n": 8, "seed": 0}]

    def test_sweep_warmed_point_hits_stats_and_the_daemon(self, tmp_path, capsys):
        cache = RunCache(tmp_path / "cache")
        first = run_sweep(catalog_factory, self.CONFIGS, workers=1, cache=cache)
        assert not first[0].from_cache
        assert first[0].result.metrics.engine == "fast"
        argv = ["stats", "fanout", "--n", "8", "--cache", str(cache.root)]
        assert main(argv) == 0
        assert "cache: 1 hit(s), 0 miss(es)" in capsys.readouterr().out
        sock = str(tmp_path / "d.sock")
        with ReproServer(sock, workers=1, cache_root=cache.root):
            client = ServiceClient(sock)
            client.wait_until_ready()
            reply = client.run("fanout", {"n": 8, "seed": 0})
        assert reply["cached"] is True
        assert reply["rounds"] == first[0].result.rounds

    def test_legacy_kwargs_then_spec_hits(self, tmp_path):
        # The engine-instance shorthand that replaced the ``engine=``
        # keyword must key like the spec it stands for.
        cache = RunCache(tmp_path)
        first = run_sweep(
            catalog_factory,
            self.CONFIGS,
            workers=1,
            execution=FastEngine(check="bandwidth"),
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
            execution=FastEngine(check="bandwidth"),
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
        # No keyword can sit beside the spec any more.
        with pytest.raises(TypeError):
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


class TestDefaultEngine:
    """Every entry point runs on the engine it has always run on: the
    reference engine for single runs, the batch engine for batches."""

    CONFIG = {"algorithm": "bfs", "n": 8, "seed": 0}

    def test_single_runs_default_to_reference(self, monkeypatch, capsys):
        spec = catalog_factory(dict(self.CONFIG))
        clique = CongestedClique(spec.resolved_n())
        runs = [
            run_spec(spec)[0],
            clique.run(spec.program, spec.node_input, aux=spec.aux),
            run_algorithm(spec.program, spec.node_input, aux=spec.aux),
        ]
        assert [r.metrics.engine for r in runs] == ["reference"] * 3
        import repro.engine.pool as pool_module

        seen = []
        real = pool_module.run_spec

        def spy(*args, **kwargs):
            result, value = real(*args, **kwargs)
            seen.append(result.metrics.engine)
            return result, value

        monkeypatch.setattr(pool_module, "run_spec", spy)
        assert main(["run", "subgraph", "--n", "8"]) == 0
        assert seen == ["reference"]

    def test_batch_runs_default_to_the_batch_engine(
        self, monkeypatch, capsys, tmp_path
    ):
        import repro.engine

        outcomes = run_sweep(catalog_factory, [self.CONFIG], workers=1)
        assert outcomes[0].result.metrics.engine == BATCH_ENGINE
        # repro sweep: the outcomes it tabulates.
        seen = []
        real = repro.engine.run_sweep

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            seen.extend(o.result.metrics.engine for o in result)
            return result

        monkeypatch.setattr(repro.engine, "run_sweep", spy)
        assert main(["sweep", "bfs", "--ns", "8", "--seeds", "1"]) == 0
        assert seen == [BATCH_ENGINE]
        # repro stats: the metrics' own engine name is in the title.
        assert main(["stats", "bfs", "--n", "8"]) == 0
        assert f"{BATCH_ENGINE} engine)" in capsys.readouterr().out
        # repro trace: the run_start event names the engine that ran.
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "bfs", "--n", "8", "--jsonl", str(path)]) == 0
        first = json.loads(path.read_text().splitlines()[0])
        assert first["detail"]["engine"] == BATCH_ENGINE
        # The daemon.
        sock = str(tmp_path / "d.sock")
        with ReproServer(sock, workers=1, cache_root=tmp_path / "cache"):
            client = ServiceClient(sock)
            client.wait_until_ready()
            reply = client.run("bfs", {"n": 8, "seed": 0})
        assert reply["metrics"]["engine"] == BATCH_ENGINE


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
