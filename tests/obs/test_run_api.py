"""The unified run API: the execution spec's observer/check/transcripts
fields, the removed keyword spellings, engine resolution conflicts, and
sweep integration."""

import pytest

from repro.clique import run_algorithm
from repro.clique.bits import BitString
from repro.clique.errors import CliqueError
from repro.clique.network import CongestedClique, RunResult
from repro.bench import all_to_all_chatter
from repro.engine import (
    ColumnarEngine,
    ExecutionSpec,
    FastEngine,
    ReferenceEngine,
    RunSpec,
    aggregate_sweep_metrics,
    canonical_check,
    resolve_engine,
    run_spec,
    run_sweep,
)
from repro.obs import (
    CompositeObserver,
    MetricsCollector,
    Profiler,
    Tracer,
    describe_observer,
    resolve_observer,
)
from repro.problems import generators as gen
from repro.service import ServiceClient


def ring_prog(node):
    node.send((node.id + 1) % node.n, BitString(1, 1))
    yield
    return node.id


def ring_factory(config):
    return RunSpec(program=ring_prog, n=config["n"])


class TestObserverSpecs:
    def test_default_is_metrics(self):
        assert isinstance(resolve_observer(None), MetricsCollector)

    def test_off(self):
        assert resolve_observer(False) is None
        assert resolve_observer({"observer": "off"}) is None

    def test_metrics_dict_builds_a_configured_collector(self):
        obs = resolve_observer({"observer": "metrics", "links": True, "profile": False})
        assert isinstance(obs, MetricsCollector)
        assert (obs.links, obs.profile) == (True, False)
        assert obs.wants_messages and not obs.wants_timing

    def test_instance_passes_through(self):
        obs = Profiler()
        assert resolve_observer(obs) is obs

    @pytest.mark.parametrize("alias", [True, "metrics", "off"])
    def test_removed_aliases_rejected(self, alias):
        # Each meaning has one spelling: None, False, the dict or an
        # instance.
        with pytest.raises(CliqueError, match="observer must be None, False"):
            resolve_observer(alias)

    def test_bad_spec_rejected(self):
        with pytest.raises(CliqueError):
            resolve_observer("everything")
        with pytest.raises(CliqueError):
            resolve_observer(42)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"observer": "metric", "links": True, "profile": False},
                r"got \{'observer': 'metric'.*; did you mean 'metrics'\?$",
            ),
            (
                {"observer": "metrics", "link": True, "profile": False},
                r"unknown key 'link'.*did you mean 'links'",
            ),
            (
                {"observer": "metrics", "links": 1, "profile": False},
                r"'links' must be a bool",
            ),
            (
                {"observer": "metrics", "links": True},
                r"is missing the 'profile' key$",
            ),
            (
                {"observer": "metrics", "profile": True},
                r"is missing the 'links' key$",
            ),
            (
                {"observer": "off", "links": True},
                r"unknown key 'links' in observer spec \{'observer': 'off'",
            ),
            ({"links": True}, r"observer must be None, False"),
            ({"observer": ["metrics"]}, r"observer must be None, False"),
        ],
        ids=[
            "kind-typo",
            "key-typo",
            "non-bool",
            "missing-key",
            "missing-links",
            "off-key",
            "no-kind",
            "unhashable-kind",
        ],
    )
    def test_bad_spec_dict_rejected(self, spec, message):
        with pytest.raises(CliqueError, match=message):
            resolve_observer(spec)

    def test_describe_observer(self):
        assert describe_observer(False) == {"observer": "off"}
        assert describe_observer(None)["observer"] == "metrics"
        assert describe_observer(Tracer())["observer"] == "tracer"

    @pytest.mark.parametrize("links", [False, True])
    @pytest.mark.parametrize("profile", [False, True])
    def test_spec_dict_is_its_own_key_material(self, links, profile):
        # A cache warmed through a MetricsCollector(links=, profile=)
        # instance (repro stats before it went through run_sweep) keeps
        # hitting under the dict spelling.
        spec = {"observer": "metrics", "links": links, "profile": profile}
        instance = MetricsCollector(links=links, profile=profile)
        assert describe_observer(spec) == describe_observer(instance) == spec
        assert describe_observer({"observer": "off"}) == describe_observer(False)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_run_metrics_on_by_default_off_on_request(self, engine):
        on = CongestedClique(4).run(ring_prog, execution=engine)
        off = CongestedClique(4).run(
            ring_prog, execution=ExecutionSpec(engine=engine, observer=False)
        )
        assert on.metrics is not None
        assert on.metrics.engine == engine
        assert off.metrics is None
        assert on.rounds == off.rounds

    def test_composite_observer(self):
        tracer, profiler, collector = Tracer(), Profiler(), MetricsCollector()
        composite = CompositeObserver(tracer, profiler, collector)
        assert composite.wants_messages and composite.wants_timing
        result = CongestedClique(4).run(
            ring_prog, execution=ExecutionSpec(observer=composite)
        )
        assert result.metrics is not None  # from the collector part
        assert profiler.totals
        assert len(tracer.sink.events()) > 0


class TestCheckVocabulary:
    def test_canonical_levels_pass_through(self):
        for level in ("full", "bandwidth"):
            assert canonical_check(level) == level
        assert canonical_check(None) is None

    def test_booleans_are_rejected(self):
        for flag in (True, False):
            with pytest.raises(CliqueError, match="check must be one of"):
                canonical_check(flag)
            with pytest.raises(CliqueError, match="check must be one of"):
                CongestedClique(4).run(ring_prog, execution={"check": flag})

    def test_unknown_level_rejected(self):
        # "off" is gone: no level turns off the per-link bit budget.
        for level in ("paranoid", "off"):
            with pytest.raises(CliqueError, match="check must be one of"):
                canonical_check(level)
            with pytest.raises(CliqueError, match="check must be one of"):
                resolve_engine("fast", check=level)
            with pytest.raises(CliqueError, match="check must be one of"):
                ExecutionSpec(engine="columnar", check=level)

    def test_run_accepts_check(self):
        result = CongestedClique(4).run(
            ring_prog, execution=ExecutionSpec(engine="reference", check="bandwidth")
        )
        assert result.rounds == 1


class TestEngineResolution:
    def test_check_configures_named_engine(self):
        engine = resolve_engine("fast", check="full")
        assert isinstance(engine, FastEngine) and engine.check == "full"
        assert resolve_engine(None, check="bandwidth").check == "bandwidth"

    def test_instance_passes_through(self):
        engine = FastEngine(check="full")
        assert resolve_engine(engine) is engine
        assert resolve_engine(engine, check="full") is engine

    def test_conflicting_instance_check_rejected(self):
        with pytest.raises(CliqueError):
            resolve_engine(FastEngine(check="full"), check="bandwidth")

    def test_reference_describe_is_stable(self):
        # Frozen shape: existing cache entries are keyed on it.
        assert ReferenceEngine().describe() == {"engine": "reference"}
        assert ReferenceEngine(check="bandwidth").describe() == {
            "engine": "reference",
            "check": "bandwidth",
        }


class TestDeprecatedForms:
    """The old spellings of "how to run" are gone: each is a TypeError."""

    @pytest.mark.parametrize(
        "keyword",
        [
            "engine",
            "check",
            "observer",
            "fault_plan",
            "transcripts",
            "record_transcripts",
        ],
    )
    def test_flat_execution_keywords_are_removed(self, keyword):
        g = gen.random_graph(6, 0.4, 0)
        spec = RunSpec(program=ring_prog, n=4)
        calls = [
            lambda **kw: CongestedClique(4).run(ring_prog, **kw),
            lambda **kw: run_algorithm(ring_prog, g, **kw),
            lambda **kw: run_spec(spec, **kw),
            lambda **kw: run_sweep(ring_factory, [{"n": 4}], workers=1, **kw),
            lambda **kw: all_to_all_chatter(4, 1, **kw),
            lambda **kw: ServiceClient("unused.sock").run("bfs", {}, **kw),
            lambda **kw: ServiceClient("unused.sock").sweep("bfs", [{}], **kw),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call(**{keyword: None})

    def test_removed_engine_spellings(self):
        with pytest.raises(TypeError):
            run_spec(RunSpec(program=ring_prog, n=4), "fast")
        with pytest.raises(TypeError):
            RunSpec(program=ring_prog, n=4, fault_plan="drop=0.1")
        for engine in (FastEngine, ColumnarEngine):
            with pytest.raises(TypeError):
                engine(record_transcripts=True)

    def test_positional_and_keyword_aux_conflict(self):
        def prog(node):
            return node.aux
            yield

        with pytest.raises(TypeError):
            CongestedClique(3).run(prog, None, 7, aux=7)
        with pytest.raises(TypeError):
            CongestedClique(3).run(prog, None, 7)

    def test_record_transcripts_conflicts_with_transcripts(self):
        g = gen.random_graph(6, 0.4, 0)

        def prog(node):
            return node.id
            yield

        with pytest.raises(TypeError):
            run_algorithm(prog, g, record_transcripts=True, transcripts=False)

    def test_transcripts_keyword_overrides_clique_default(self):
        clique = CongestedClique(4, record_transcripts=True)
        off = clique.run(ring_prog, execution=ExecutionSpec(transcripts=False))
        on = clique.run(ring_prog)
        assert off.transcripts is None
        assert on.transcripts is not None
        g = gen.random_graph(6, 0.4, 0)
        via = run_algorithm(ring_prog, g, execution={"transcripts": True})
        assert via.transcripts is not None


class TestRunResultStability:
    def test_dict_round_trip(self):
        result = CongestedClique(4, record_transcripts=True).run(ring_prog)
        back = RunResult.from_dict(result.to_dict())
        assert back == result
        assert back.metrics == result.metrics
        assert back.transcripts == result.transcripts


class TestSweepIntegration:
    def test_observer_instance_rejected(self):
        with pytest.raises(CliqueError):
            run_sweep(
                ring_factory,
                [{"n": 4}],
                workers=1,
                execution=ExecutionSpec(observer=MetricsCollector()),
            )

    def test_metrics_flow_through_sweep(self):
        outcomes = run_sweep(ring_factory, [{"n": 4}, {"n": 6}], workers=1)
        assert all(o.result.metrics is not None for o in outcomes)
        summary = aggregate_sweep_metrics(outcomes)
        assert summary["runs"] == 2
        assert summary["total_message_bits"] == sum(
            o.result.metrics.message_bits for o in outcomes
        )

    def test_observer_off_in_sweep(self):
        outcomes = run_sweep(
            ring_factory, [{"n": 4}], workers=1, execution={"observer": False}
        )
        assert outcomes[0].result.metrics is None
        assert aggregate_sweep_metrics(outcomes) == {"runs": 0}
