"""Tests for collective communication primitives."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique.bits import BitString, BitWriter
from repro.clique.errors import ProtocolViolation
from repro.clique.network import CongestedClique
from repro.clique.primitives import (
    agree_uint_max,
    all_broadcast,
    all_broadcast_concat,
    all_gather_uint,
    broadcast_from,
    chunks_needed,
    exchange,
    idle,
)
from repro.engine import ExecutionSpec


class TestChunksNeeded:
    def test_exact(self):
        assert chunks_needed(8, 4) == 2

    def test_rounding(self):
        assert chunks_needed(9, 4) == 3

    def test_zero(self):
        assert chunks_needed(0, 4) == 0

    def test_bad_chunk(self):
        with pytest.raises(ProtocolViolation):
            chunks_needed(8, 0)


class TestIdle:
    def test_idle_rounds(self):
        def prog(node):
            yield from idle(4)
            return None

        assert CongestedClique(3).run(prog).rounds == 4


class TestExchange:
    def test_pairwise(self):
        def prog(node):
            payloads = {
                d: BitString(node.id, 2) for d in range(node.n) if d != node.id
            }
            got = yield from exchange(node, payloads)
            return {s: b.value for s, b in got.items()}

        result = CongestedClique(4).run(prog)
        assert result.rounds == 1
        assert result.outputs[2] == {0: 0, 1: 1, 3: 3}


class TestAllGatherUint:
    def test_small_values_one_round(self):
        def prog(node):
            values = yield from all_gather_uint(node, node.id, 2)
            return values

        result = CongestedClique(4).run(prog)
        assert result.rounds == 1
        assert result.common_output() == [0, 1, 2, 3]

    def test_wide_values_chunked(self):
        def prog(node):
            values = yield from all_gather_uint(node, node.id * 1000, 16)
            return values

        result = CongestedClique(4).run(prog)  # B = 2
        assert result.rounds == math.ceil(16 / 2)
        assert result.common_output() == [0, 1000, 2000, 3000]


class TestAllBroadcast:
    def test_roundtrip(self):
        def prog(node):
            payload = BitWriter().write_uint(node.id, 4).write_uint(7, 4).finish()
            got = yield from all_broadcast(node, payload)
            return [b.to_str() for b in got]

        result = CongestedClique(5).run(prog)
        expected = [
            (BitWriter().write_uint(v, 4).write_uint(7, 4).finish()).to_str()
            for v in range(5)
        ]
        assert result.common_output() == expected

    def test_rounds_scale_with_length(self):
        def make(length):
            def prog(node):
                yield from all_broadcast(node, BitString.zeros(length))
                return None

            return prog

        n = 8  # B = 3
        assert CongestedClique(n).run(make(3)).rounds == 1
        assert CongestedClique(n).run(make(30)).rounds == 10

    def test_empty_payload(self):
        def prog(node):
            got = yield from all_broadcast(node, BitString.empty())
            return [len(b) for b in got]

        result = CongestedClique(3).run(prog)
        assert result.rounds == 0
        assert result.common_output() == [0, 0, 0]

    def test_mismatched_lengths_detected(self):
        def prog(node):
            length = 4 if node.id == 0 else 8
            got = yield from all_broadcast(node, BitString.zeros(length))
            return got

        with pytest.raises(ProtocolViolation):
            CongestedClique(3).run(prog)


def _concat_broadcast(node, payload):
    """``all_broadcast`` reassembled the pre-fold way: per-sender chunk
    lists joined by ``BitString.concat`` (the property tests' oracle)."""
    k = len(payload)
    collected = {v: [] for v in range(node.n)}
    for chunk in payload.split(node.bandwidth):
        node.send_to_all(chunk)
        yield
        for src, msg in node.inbox.items():
            collected[src].append(msg)
        collected[node.id].append(chunk)
    result = []
    for v in range(node.n):
        got = BitString.concat(collected[v])
        if len(got) != k:
            raise ProtocolViolation(
                f"all_broadcast: node {node.id} reassembled {len(got)} bits "
                f"from node {v}, expected {k}"
            )
        result.append(got)
    return result


def _pattern(v, length, seed):
    return BitString((seed * 2654435761 * (v + 3)) % (1 << length), length)


def _outcome(n, mult, prog, plan=None, engine="reference"):
    """Outputs, rounds and transcripts of a run, or its error text."""
    clique = CongestedClique(n, bandwidth_multiplier=mult, record_transcripts=True)
    try:
        result = clique.run(
            prog, execution=ExecutionSpec(engine=engine, fault_plan=plan)
        )
    except ProtocolViolation as exc:
        return str(exc)
    return result.outputs, result.rounds, result.transcripts


class TestFoldMatchesConcat:
    """The folding collectives against per-chunk ``BitString.concat``."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 9),
        mult=st.integers(1, 3),
        length=st.integers(0, 70),
        seed=st.integers(1, 1 << 16),
    )
    def test_all_broadcast(self, n, mult, length, seed):
        def run(collective):
            def prog(node):
                got = yield from collective(node, _pattern(node.id, length, seed))
                return [(len(b), b.value) for b in got]

            return _outcome(n, mult, prog)

        assert run(all_broadcast) == run(_concat_broadcast)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 9),
        mult=st.integers(1, 3),
        length=st.integers(0, 70),
        seed=st.integers(1, 1 << 16),
    )
    def test_all_broadcast_concat(self, n, mult, length, seed):
        def folded(node):
            got = yield from all_broadcast_concat(
                node, _pattern(node.id, length, seed)
            )
            return len(got), got.value

        def oracle(node):
            got = yield from _concat_broadcast(node, _pattern(node.id, length, seed))
            joined = BitString.concat(got)
            return len(joined), joined.value

        assert _outcome(n, mult, folded) == _outcome(n, mult, oracle)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 9),
        mult=st.integers(1, 3),
        width=st.integers(1, 70),
        seed=st.integers(1, 1 << 16),
    )
    def test_all_gather_uint(self, n, mult, width, seed):
        def folded(node):
            value = _pattern(node.id, width, seed).value
            return (yield from all_gather_uint(node, value, width))

        def oracle(node):
            got = yield from _concat_broadcast(node, _pattern(node.id, width, seed))
            return [b.value for b in got]

        assert _outcome(n, mult, folded) == _outcome(n, mult, oracle)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(3, 9),
        length=st.integers(1, 40),
        plan_seed=st.integers(0, 1000),
        engine=st.sampled_from(["reference", "fast"]),
    )
    def test_drop_plan_names_the_same_node(self, n, length, plan_seed, engine):
        plan = f"drop=0.2,seed={plan_seed}"

        def run(collective):
            def prog(node):
                got = yield from collective(node, _pattern(node.id, length, 7))
                return [b.value for b in got]

            return _outcome(n, 1, prog, plan, engine)

        assert run(all_broadcast) == run(_concat_broadcast)

    @pytest.mark.parametrize("collective", [all_broadcast, all_broadcast_concat])
    def test_drop_plan_error_text(self, collective):
        def prog(node):
            got = yield from collective(node, _pattern(node.id, 24, 7))
            return got

        assert _outcome(6, 1, prog, "drop=0.3,seed=1") == (
            "all_broadcast: node 0 reassembled 12 bits from node 1, expected 24"
        )


class TestBroadcastFrom:
    @pytest.mark.parametrize("length", [1, 5, 12, 64, 200])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_payload_received_by_all(self, n, length):
        payload = BitString.from_bits([(i * 7 + 3) % 2 for i in range(length)])

        def prog(node):
            mine = payload if node.id == 1 % n else None
            got = yield from broadcast_from(node, 1 % n, mine, length)
            return got.to_str()

        result = CongestedClique(n).run(prog)
        assert result.common_output() == payload.to_str()

    def test_doubling_beats_direct_for_long_payloads(self):
        """For k >> B the two-phase broadcast uses ~2k/(B(n-1)) rounds."""
        n, length = 16, 16 * 15 * 4  # B = 4
        payload = BitString.zeros(length)

        def prog(node):
            mine = payload if node.id == 0 else None
            yield from broadcast_from(node, 0, mine, length)
            return None

        rounds = CongestedClique(n).run(prog).rounds
        direct_rounds = math.ceil(length / 4)
        assert rounds < direct_rounds / 2

    def test_root_without_payload_rejected(self):
        def prog(node):
            got = yield from broadcast_from(node, 0, None, 8)
            return got

        with pytest.raises(ProtocolViolation):
            CongestedClique(3).run(prog)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 8),
        root=st.integers(0, 7),
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=60),
    )
    def test_property_roundtrip(self, n, root, bits):
        root %= n
        payload = BitString.from_bits(bits)

        def prog(node):
            mine = payload if node.id == root else None
            got = yield from broadcast_from(node, root, mine, len(bits))
            return got.to_str()

        result = CongestedClique(n).run(prog)
        assert result.common_output() == payload.to_str()


class TestAgreeMax:
    def test_max(self):
        def prog(node):
            return (yield from agree_uint_max(node, node.id * 3, 8))

        assert CongestedClique(5).run(prog).common_output() == 12
