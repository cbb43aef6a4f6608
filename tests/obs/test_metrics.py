"""RunMetrics: agreement with transcript-derived totals across the
catalog, per-round consistency, serialisation, and aggregation."""

import json

import pytest

from repro.clique.bits import BitString
from repro.clique.network import CongestedClique
from repro.engine import ExecutionSpec, run_spec
from repro.engine.diff import catalog_factory
from repro.obs import MetricsCollector, RunMetrics, summarise_metrics

ALGORITHMS = ["broadcast", "bfs", "subgraph", "sorting", "kds"]


def ring_prog(node):
    node.send((node.id + 1) % node.n, BitString(1, 1))
    yield
    return None


class TestTranscriptAgreement:
    """The collector's totals must equal what the bit-exact transcripts
    independently record — on every family in the diff catalog."""

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_metrics_match_transcript_totals(self, name):
        spec = catalog_factory({"algorithm": name, "n": 9, "seed": 1})
        spec.record_transcripts = True
        result, _ = run_spec(spec, execution="reference")
        m, ts = result.metrics, result.transcripts
        assert m is not None and ts is not None
        for v, t in enumerate(ts):
            sent = sum(len(b) for rec in t.rounds for b in rec.sent.values())
            received = sum(len(b) for rec in t.rounds for b in rec.received.values())
            assert m.sent_bits[v] == sent == result.sent_bits[v]
            assert m.received_bits[v] == received == result.received_bits[v]
        assert m.message_bits + m.bulk_bits == sum(m.sent_bits)
        assert m.rounds == result.rounds == ts[0].num_rounds()

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_engines_agree_on_totals(self, name):
        config = {"algorithm": name, "n": 9, "seed": 1}
        ref, _ = run_spec(catalog_factory(config), execution="reference")
        fast, _ = run_spec(catalog_factory(config), execution="fast")
        a, b = ref.metrics, fast.metrics
        assert a.rounds == b.rounds
        # The reference engine sees broadcasts as n-1 queued unicasts,
        # the fast engine counts expanded recipient-messages: the split
        # differs, the totals must not.
        assert a.messages == b.messages
        assert a.message_bits == b.message_bits
        assert a.bulk_bits == b.bulk_bits
        assert a.sent_bits == b.sent_bits
        assert a.received_bits == b.received_bits
        assert a.max_node_load() == b.max_node_load()
        assert a.routed_payload_load() == b.routed_payload_load()


class TestConsistency:
    def test_per_round_sums_to_run_totals(self):
        result, _ = run_spec(
            catalog_factory({"algorithm": "bfs", "n": 9, "seed": 0}),
            execution="fast",
        )
        m = result.metrics
        assert len(m.per_round) == m.rounds
        assert sum(r.message_bits for r in m.per_round) == m.message_bits
        assert sum(r.bulk_bits for r in m.per_round) == m.bulk_bits
        assert sum(r.messages for r in m.per_round) == m.messages
        assert [r.round for r in m.per_round] == list(range(1, m.rounds + 1))

    def test_matches_run_result_accounting(self):
        result, _ = run_spec(
            catalog_factory({"algorithm": "broadcast", "n": 8, "seed": 0}),
            execution="fast",
        )
        m = result.metrics
        assert m.message_bits == result.total_message_bits
        assert m.bulk_bits == result.bulk_bits
        assert m.sent_bits == result.sent_bits
        assert m.received_bits == result.received_bits
        assert m.counters == result.counters

    def test_max_node_load_ties_break_low(self):
        m = RunMetrics(
            n=3,
            bandwidth=2,
            engine="fast",
            rounds=1,
            message_bits=4,
            bulk_bits=0,
            unicast_messages=2,
            broadcast_messages=0,
            bulk_messages=0,
            per_round=(),
            sent_bits=(2, 2, 0),
            received_bits=(0, 0, 4),
        )
        # Loads are (2, 2, 4): node 2 wins outright.
        assert m.max_node_load() == (2, 4)
        tied = RunMetrics(
            n=2,
            bandwidth=1,
            engine="fast",
            rounds=1,
            message_bits=2,
            bulk_bits=0,
            unicast_messages=2,
            broadcast_messages=0,
            bulk_messages=0,
            per_round=(),
            sent_bits=(1, 1),
            received_bits=(1, 1),
        )
        assert tied.max_node_load() == (0, 2)


class TestLinksAndProfile:
    def test_link_matrix_and_busiest_links(self):
        obs = MetricsCollector(links=True)
        result = CongestedClique(4).run(
            ring_prog,
            execution=ExecutionSpec(observer=obs),
        )
        m = result.metrics
        assert m.link_bits == {(v, (v + 1) % 4): 1 for v in range(4)}
        assert m.busiest_links(2) == [(0, 1, 1), (1, 2, 1)]

    def test_links_off_by_default(self):
        result = CongestedClique(4).run(ring_prog)
        assert result.metrics.link_bits is None
        assert result.metrics.busiest_links() == []

    def test_profile_collects_phase_totals(self):
        obs = MetricsCollector(profile=True)
        result = CongestedClique(4).run(
            ring_prog,
            execution=ExecutionSpec(engine="reference", observer=obs),
        )
        phases = result.metrics.phases
        assert phases is not None
        assert {"spawn", "validate", "deliver", "advance"} <= set(phases)
        assert all(secs >= 0 for secs in phases.values())


class TestSerialisation:
    def test_round_trip_through_json(self):
        obs = MetricsCollector(links=True, profile=True)
        result = CongestedClique(5).run(
            ring_prog,
            execution=ExecutionSpec(engine="reference", observer=obs),
        )
        m = result.metrics
        back = RunMetrics.from_dict(json.loads(json.dumps(m.to_dict())))
        assert back == m

    def test_round_trip_without_extras(self):
        result = CongestedClique(4).run(ring_prog)
        m = result.metrics
        assert RunMetrics.from_dict(m.to_dict()) == m


class TestCollectorLifecycle:
    def test_collector_resets_between_runs(self):
        obs = MetricsCollector()
        r1 = CongestedClique(4).run(ring_prog, execution=ExecutionSpec(observer=obs))
        r2 = CongestedClique(6).run(ring_prog, execution=ExecutionSpec(observer=obs))
        assert r1.metrics.n == 4
        assert r2.metrics.n == 6
        assert r1.metrics is not r2.metrics


class TestSummarise:
    def test_empty(self):
        assert summarise_metrics([]) == {"runs": 0}
        assert summarise_metrics([None]) == {"runs": 0}

    def test_aggregates(self):
        results = [CongestedClique(n).run(ring_prog).metrics for n in (4, 6)]
        summary = summarise_metrics(results)
        assert summary["runs"] == 2
        assert summary["total_rounds"] == sum(m.rounds for m in results)
        assert summary["total_message_bits"] == sum(m.message_bits for m in results)
        assert summary["max_node_load_bits"] == max(
            m.max_node_load()[1] for m in results
        )
