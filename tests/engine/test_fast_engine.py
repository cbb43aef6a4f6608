"""Behavioural tests for the fast backend: validation levels, model
variants it refuses, transcripts and bit accounting."""

import pytest

from repro.clique.bits import BitString
from repro.clique.errors import (
    BandwidthExceeded,
    CliqueError,
    DuplicateMessage,
    InvalidAddress,
    ProtocolViolation,
)
from repro.clique.graph import CliqueGraph
from repro.clique.network import CongestedClique
from repro.engine import (
    ENGINES,
    ExecutionSpec,
    FastEngine,
    ReferenceEngine,
    resolve_engine,
)


def one_round(send_phase):
    """A program that runs ``send_phase(node)`` then one round."""

    def prog(node):
        send_phase(node)
        yield
        return None

    return prog


class TestCheckLevels:
    def test_invalid_level_rejected(self):
        # "off" is gone: no level turns off the <=B-bits-per-link invariant.
        for level in ("paranoid", "off"):
            with pytest.raises(CliqueError, match="check must be one of"):
                FastEngine(check=level)

    def test_full_catches_duplicates(self):
        clique = CongestedClique(4)

        def phase(node):
            if node.id == 0:
                node.send(1, BitString(1, 1))
                node.send(1, BitString(0, 1))

        with pytest.raises(DuplicateMessage):
            clique.run(one_round(phase), execution=FastEngine(check="full"))

    def test_full_catches_bad_address(self):
        clique = CongestedClique(4)

        def phase(node):
            if node.id == 0:
                node.send(7, BitString(1, 1))

        with pytest.raises(InvalidAddress):
            clique.run(one_round(phase), execution=FastEngine(check="full"))

    def test_full_catches_self_address(self):
        clique = CongestedClique(4)

        def phase(node):
            node.send(node.id, BitString(1, 1))

        with pytest.raises(InvalidAddress):
            clique.run(one_round(phase), execution=FastEngine(check="full"))

    def test_full_catches_empty_payload(self):
        clique = CongestedClique(4)

        def phase(node):
            if node.id == 0:
                node.send(1, BitString(0, 0))

        with pytest.raises(ProtocolViolation):
            clique.run(one_round(phase), execution=FastEngine(check="full"))

    @pytest.mark.parametrize("check", ["full", "bandwidth"])
    def test_bandwidth_enforced(self, check):
        clique = CongestedClique(4)  # B = 2 bits
        big = BitString(0, clique.bandwidth + 1)

        def phase(node):
            if node.id == 0:
                node.send(1, big)

        with pytest.raises(BandwidthExceeded):
            clique.run(one_round(phase), execution=FastEngine(check=check))

    @pytest.mark.parametrize("check", ["full", "bandwidth"])
    def test_broadcast_bandwidth_enforced(self, check):
        clique = CongestedClique(4)
        big = BitString(0, clique.bandwidth + 1)

        def phase(node):
            node.send_to_all(big)

        with pytest.raises(BandwidthExceeded):
            clique.run(one_round(phase), execution=FastEngine(check=check))

    def test_bandwidth_level_skips_duplicate_check(self):
        clique = CongestedClique(4)

        def phase(node):
            if node.id == 0:
                node.send(1, BitString(1, 1))
                node.send(1, BitString(0, 1))

        # Permissive by design: last write wins, no exception.
        result = clique.run(one_round(phase), execution=FastEngine(check="bandwidth"))
        assert result.rounds == 1


class TestModelVariants:
    def test_broadcast_only_clique_rejected(self):
        clique = CongestedClique(4, broadcast_only=True)

        def prog(node):
            node.send_to_all(BitString(1, 1))
            yield
            return None

        with pytest.raises(CliqueError, match="plain congested clique"):
            clique.run(prog, execution="fast")
        # ... but the reference engine runs it fine.
        assert clique.run(prog, execution="reference").rounds == 1

    def test_congest_topology_rejected(self):
        path = CliqueGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        clique = CongestedClique(4, topology=path)

        def prog(node):
            yield
            return None

        with pytest.raises(CliqueError, match="plain congested clique"):
            clique.run(prog, execution="fast")


class TestTranscriptsAndAccounting:
    def prog(self, node):
        node.send_to_all(BitString(node.id % 2, 1))
        yield
        node.send((node.id + 1) % node.n, BitString(1, 1))
        yield
        return sorted(node.inbox)

    def test_transcripts_off_by_default(self):
        result = CongestedClique(4).run(self.prog, execution="fast")
        assert result.transcripts is None

    def test_clique_request_turns_transcripts_on(self):
        result = CongestedClique(4, record_transcripts=True).run(
            self.prog,
            execution="fast",
        )
        assert result.transcripts is not None
        assert len(result.transcripts) == 4
        assert all(len(t.rounds) == result.rounds for t in result.transcripts)

    def test_engine_flag_turns_transcripts_on(self):
        # Transcripts come from the execution spec (or the clique),
        # not from an engine constructor knob.
        result = CongestedClique(4).run(
            self.prog,
            execution=ExecutionSpec(engine="fast", transcripts=True),
        )
        assert result.transcripts is not None
        with pytest.raises(TypeError):
            FastEngine(record_transcripts=True)

    def test_transcripts_match_reference(self):
        clique = CongestedClique(5, record_transcripts=True)
        ref = clique.run(self.prog, execution="reference")
        fast = clique.run(self.prog, execution="fast")
        for tr, tf in zip(ref.transcripts, fast.transcripts):
            assert tr == tf

    def test_accounting_matches_reference(self):
        clique = CongestedClique(6)
        ref = clique.run(self.prog, execution="reference")
        fast = clique.run(self.prog, execution="fast")
        assert fast.rounds == ref.rounds
        assert fast.total_message_bits == ref.total_message_bits
        assert fast.bulk_bits == ref.bulk_bits
        assert fast.sent_bits == ref.sent_bits
        assert fast.received_bits == ref.received_bits
        assert fast.outputs == ref.outputs

    def test_single_node_broadcast_is_a_noop(self):
        def prog(node):
            node.send_to_all(BitString(1, 1))
            yield
            return "done"

        result = CongestedClique(1).run(prog, execution="fast")
        assert result.outputs == {0: "done"}
        assert result.total_message_bits == 0


class TestRegistry:
    def test_default_is_reference(self):
        assert isinstance(resolve_engine(None), ReferenceEngine)

    def test_names_resolve(self):
        assert resolve_engine("fast").name == "fast"
        assert resolve_engine("reference").name == "reference"
        assert set(ENGINES) >= {"fast", "reference"}

    def test_instances_pass_through(self):
        engine = FastEngine(check="full")
        assert resolve_engine(engine) is engine

    def test_unknown_name_rejected(self):
        with pytest.raises(CliqueError, match="unknown engine"):
            resolve_engine("warp")

    def test_describe_is_cache_key_material(self):
        assert FastEngine().describe() != FastEngine(check="full").describe()
        assert ReferenceEngine().describe() == {"engine": "reference"}
