"""Tests for the synchronous round engine."""

import pytest

from repro.clique.bits import BitString
from repro.clique.errors import (
    BandwidthExceeded,
    CliqueError,
    DuplicateMessage,
    InvalidAddress,
    ProtocolViolation,
    RoundLimitExceeded,
)
from repro.clique.graph import CliqueGraph
from repro.clique.network import CongestedClique, default_bandwidth
from repro.clique.algorithm import run_algorithm


class TestDefaultBandwidth:
    def test_log_n(self):
        assert default_bandwidth(2) == 1
        assert default_bandwidth(4) == 2
        assert default_bandwidth(5) == 3
        assert default_bandwidth(1024) == 10

    def test_multiplier(self):
        assert default_bandwidth(16, multiplier=3) == 12

    def test_tiny_clique_floor(self):
        assert default_bandwidth(1) == 1

    def test_bad_args(self):
        with pytest.raises(CliqueError):
            default_bandwidth(0)
        with pytest.raises(CliqueError):
            default_bandwidth(4, multiplier=0)


class TestBasicExecution:
    def test_no_communication(self):
        def prog(node):
            return node.id * 2
            yield  # pragma: no cover

        result = CongestedClique(4).run(prog)
        assert result.rounds == 0
        assert result.outputs == {0: 0, 1: 2, 2: 4, 3: 6}
        assert result.total_message_bits == 0

    def test_single_round_exchange(self):
        def prog(node):
            node.send((node.id + 1) % node.n, BitString(node.id, 2))
            yield
            (src,) = node.inbox
            return (src, node.inbox[src].value)

        result = CongestedClique(4).run(prog)
        assert result.rounds == 1
        assert result.outputs[1] == (0, 0)
        assert result.outputs[0] == (3, 3)
        assert result.total_message_bits == 8

    def test_round_counting_multiple(self):
        def prog(node):
            for _ in range(5):
                yield
            return None

        assert CongestedClique(3).run(prog).rounds == 5

    def test_common_output(self):
        def prog(node):
            return "yes"
            yield  # pragma: no cover

        assert CongestedClique(3).run(prog).common_output() == "yes"

    def test_common_output_disagreement(self):
        def prog(node):
            return node.id
            yield  # pragma: no cover

        result = CongestedClique(2).run(prog)
        with pytest.raises(CliqueError):
            result.common_output()

    def test_messages_sent_before_final_return_are_delivered(self):
        def prog(node):
            if node.id == 0:
                node.send(1, BitString(1, 1))
                return "sender"
            yield
            return node.inbox.get(0).value if node.inbox.get(0) else None

        result = CongestedClique(2).run(prog)
        assert result.outputs == {0: "sender", 1: 1}
        assert result.rounds == 1

    def test_uneven_halting(self):
        def prog(node):
            for _ in range(node.id + 1):
                yield
            return node.id

        result = CongestedClique(3).run(prog)
        assert result.rounds == 3
        assert result.outputs == {0: 0, 1: 1, 2: 2}


class TestModelEnforcement:
    def test_bandwidth_enforced(self):
        def prog(node):
            node.send(1, BitString.zeros(node.bandwidth + 1))
            yield

        with pytest.raises(BandwidthExceeded):
            CongestedClique(4).run(prog)

    def test_duplicate_message_rejected(self):
        def prog(node):
            node.send(1, BitString(1, 1))
            node.send(1, BitString(0, 1))
            yield

        with pytest.raises(DuplicateMessage):
            CongestedClique(3).run(prog)

    def test_self_send_rejected(self):
        def prog(node):
            node.send(node.id, BitString(1, 1))
            yield

        with pytest.raises(InvalidAddress):
            CongestedClique(3).run(prog)

    def test_out_of_range_rejected(self):
        def prog(node):
            node.send(99, BitString(1, 1))
            yield

        with pytest.raises(InvalidAddress):
            CongestedClique(3).run(prog)

    def test_empty_message_rejected(self):
        def prog(node):
            node.send(1, BitString.empty())
            yield

        with pytest.raises(ProtocolViolation):
            CongestedClique(3).run(prog)

    def test_round_limit(self):
        def prog(node):
            while True:
                yield

        with pytest.raises(RoundLimitExceeded):
            CongestedClique(2, max_rounds=10).run(prog)

    def test_non_generator_rejected(self):
        def prog(node):
            return 1

        with pytest.raises(CliqueError):
            CongestedClique(2).run(prog)


class TestInputs:
    def test_graph_input(self):
        g = CliqueGraph.from_edges(3, [(0, 1)])

        def prog(node):
            return list(node.input)
            yield  # pragma: no cover

        result = CongestedClique(3).run(prog, g)
        assert result.outputs[0] == [False, True, False]
        assert result.outputs[2] == [False, False, False]

    def test_graph_size_mismatch(self):
        g = CliqueGraph.empty(3)
        with pytest.raises(CliqueError):
            CongestedClique(4).run(lambda node: iter(()), g)

    def test_callable_aux(self):
        def prog(node):
            return node.aux
            yield  # pragma: no cover

        result = CongestedClique(3).run(prog, aux=lambda v: v * 10)
        assert result.outputs == {0: 0, 1: 10, 2: 20}

    def test_sequence_aux(self):
        def prog(node):
            return node.aux
            yield  # pragma: no cover

        result = CongestedClique(3).run(prog, aux=["a", "b", "c"])
        assert result.outputs == {0: "a", 1: "b", 2: "c"}

    def test_scalar_aux_shared(self):
        def prog(node):
            return node.aux
            yield  # pragma: no cover

        result = CongestedClique(3).run(prog, aux=42)
        assert set(result.outputs.values()) == {42}

    def test_mapping_aux(self):
        def prog(node):
            return node.aux
            yield  # pragma: no cover

        result = CongestedClique(3).run(prog, aux={0: "x"})
        assert result.outputs == {0: "x", 1: None, 2: None}

    def test_run_algorithm_helper(self):
        g = CliqueGraph.from_edges(3, [(0, 2)])

        def prog(node):
            return int(sum(node.input))
            yield  # pragma: no cover

        result = run_algorithm(prog, g)
        assert result.outputs == {0: 1, 1: 0, 2: 1}


class TestTranscripts:
    def test_transcripts_recorded(self):
        def prog(node):
            node.send((node.id + 1) % node.n, BitString(node.id, 2))
            yield
            yield
            return None

        result = CongestedClique(3, record_transcripts=True).run(prog)
        assert result.transcripts is not None
        t0 = result.transcripts[0]
        assert t0.num_rounds() == 2
        assert t0.rounds[0].sent == {1: BitString(0, 2)}
        assert t0.rounds[0].received == {2: BitString(2, 2)}
        assert t0.rounds[1].sent == {}

    def test_transcripts_pairwise_consistent(self):
        def prog(node):
            for r in range(3):
                node.send((node.id + 1 + r) % node.n, BitString(node.id, 3))
                yield
            return None

        result = CongestedClique(5, record_transcripts=True).run(prog)
        ts = result.transcripts
        for a in range(5):
            for b in range(5):
                if a != b:
                    assert ts[a].consistent_with(ts[b])

    def test_no_transcripts_by_default(self):
        def prog(node):
            yield
            return None

        assert CongestedClique(2).run(prog).transcripts is None
