"""Tests for the routing schemes (direct, relay, lenzen cost model)."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique.bits import BitString
from repro.clique.errors import ProtocolViolation
from repro.clique.network import CongestedClique
from repro.clique.routing import ROUTE_SCHEMES, relay_min_bandwidth, route
from repro.engine import ExecutionSpec


def run_route(n, flow_table, scheme, bandwidth_multiplier=2, max_rounds=None):
    """Run route() collectively; flow_table[v] = {dst: BitString}."""

    def prog(node):
        flows = flow_table.get(node.id, {})
        got = yield from route(node, flows, scheme=scheme)
        return {s: b.to_str() for s, b in got.items()}

    clique = CongestedClique(
        n, bandwidth_multiplier=bandwidth_multiplier, max_rounds=max_rounds
    )
    return clique.run(prog)


def expected_inboxes(n, flow_table):
    out = {v: {} for v in range(n)}
    for src, flows in flow_table.items():
        for dst, payload in flows.items():
            if len(payload) > 0:
                out[dst][src] = payload.to_str()
    return out


def pattern_bits(length, seed):
    return BitString.from_bits([(i * seed + seed) % 2 for i in range(length)])


@pytest.mark.parametrize("scheme", ROUTE_SCHEMES)
class TestRouteCorrectness:
    def test_single_flow(self, scheme):
        flows = {0: {3: pattern_bits(40, 3)}}
        result = run_route(4, flows, scheme)
        assert result.outputs[3] == {0: pattern_bits(40, 3).to_str()}
        assert result.outputs[1] == {}

    def test_all_to_all(self, scheme):
        n = 5
        flows = {
            s: {d: pattern_bits(10 + 3 * s + d, s + d + 1) for d in range(n) if d != s}
            for s in range(n)
        }
        result = run_route(n, flows, scheme)
        want = expected_inboxes(n, flows)
        for v in range(n):
            assert result.outputs[v] == want[v]

    def test_empty_instance(self, scheme):
        result = run_route(4, {}, scheme)
        for v in range(4):
            assert result.outputs[v] == {}

    def test_self_flow_short_circuits(self, scheme):
        flows = {2: {2: pattern_bits(9, 2)}}
        result = run_route(4, flows, scheme)
        assert result.outputs[2] == {2: pattern_bits(9, 2).to_str()}

    def test_zero_length_flows_dropped(self, scheme):
        flows = {0: {1: BitString.empty(), 2: pattern_bits(4, 1)}}
        result = run_route(4, flows, scheme)
        assert result.outputs[1] == {}
        assert result.outputs[2] == {0: pattern_bits(4, 1).to_str()}

    def test_skewed_single_heavy_pair(self, scheme):
        flows = {0: {1: pattern_bits(500, 5)}}
        result = run_route(6, flows, scheme)
        assert result.outputs[1] == {0: pattern_bits(500, 5).to_str()}

    def test_star_in(self, scheme):
        """Everyone sends to node 0 (receive bottleneck)."""
        n = 6
        flows = {s: {0: pattern_bits(30 + s, s + 1)} for s in range(1, n)}
        result = run_route(n, flows, scheme)
        assert result.outputs[0] == expected_inboxes(n, flows)[0]

    def test_star_out(self, scheme):
        """Node 0 sends to everyone (send bottleneck)."""
        n = 6
        flows = {0: {d: pattern_bits(25 + d, d + 2) for d in range(1, n)}}
        result = run_route(n, flows, scheme)
        for d in range(1, n):
            assert result.outputs[d] == {0: pattern_bits(25 + d, d + 2).to_str()}

    def test_two_nodes(self, scheme):
        flows = {0: {1: pattern_bits(17, 1)}, 1: {0: pattern_bits(23, 2)}}
        result = run_route(2, flows, scheme)
        assert result.outputs[0] == {1: pattern_bits(23, 2).to_str()}
        assert result.outputs[1] == {0: pattern_bits(17, 1).to_str()}

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_instances(self, scheme, data):
        n = data.draw(st.integers(2, 7))
        flow_table = {}
        for s in range(n):
            flows = {}
            for d in range(n):
                if d == s:
                    continue
                length = data.draw(st.integers(0, 60))
                if length:
                    flows[d] = pattern_bits(length, (s * 7 + d * 3) % 5 + 1)
            if flows:
                flow_table[s] = flows
        result = run_route(n, flow_table, scheme)
        want = expected_inboxes(n, flow_table)
        for v in range(n):
            assert result.outputs[v] == want[v]


class TestSchemeSpecifics:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ProtocolViolation):
            run_route(3, {0: {1: pattern_bits(4, 1)}}, "magic")

    def test_relay_needs_header_room(self):
        with pytest.raises(ProtocolViolation):
            run_route(8, {0: {1: pattern_bits(4, 1)}}, "relay", bandwidth_multiplier=1)

    def test_relay_min_bandwidth_value(self):
        assert relay_min_bandwidth(8) == 3 + 2

    def test_lenzen_charges_load_over_n(self):
        """Balanced all-to-all: lenzen cost stays near optimal load/(B(n-1))."""
        n = 8
        per_pair = 64
        flows = {
            s: {d: BitString.zeros(per_pair) for d in range(n) if d != s}
            for s in range(n)
        }
        result = run_route(n, flows, "lenzen", bandwidth_multiplier=2)
        b = 2 * 3
        load = per_pair * (n - 1)
        optimal = math.ceil(load / (b * (n - 1)))
        # header rounds: 32-bit length exchange + 32-bit max agreement
        overhead = 2 * math.ceil(32 / b)
        assert result.rounds <= optimal + overhead
        assert result.bulk_bits == load * n

    def test_direct_rounds_match_max_pair(self):
        n = 4
        flows = {0: {1: BitString.zeros(40)}}
        result = run_route(n, flows, "direct", bandwidth_multiplier=2)
        b = 2 * 2
        overhead = math.ceil(32 / b) + math.ceil(32 / b)  # lengths + agree
        assert result.rounds == overhead + math.ceil(40 / b)

    def test_relay_beats_direct_on_skewed_load(self):
        """The whole point of relaying: a heavy single pair spreads over n links."""
        n = 8
        heavy = 8 * 200
        flows = {0: {1: pattern_bits(heavy, 3)}}
        # Multiplier 4 so the in-band [tag|peer] header does not dominate
        # the relay chunk payload.
        direct = run_route(n, flows, "direct", bandwidth_multiplier=4, max_rounds=10**6)
        relay = run_route(n, flows, "relay", bandwidth_multiplier=4, max_rounds=10**6)
        assert relay.outputs[1] == direct.outputs[1]
        assert relay.rounds < direct.rounds / 2

    def test_relay_no_bulk_channel(self):
        flows = {0: {1: pattern_bits(100, 1)}}
        result = run_route(5, flows, "relay")
        assert result.bulk_bits == 0
        assert result.total_message_bits > 0

    def test_direct_no_bulk_channel(self):
        flows = {0: {1: pattern_bits(100, 1)}}
        result = run_route(5, flows, "direct")
        assert result.bulk_bits == 0

    def test_lenzen_uses_bulk_channel(self):
        flows = {0: {1: pattern_bits(100, 1)}}
        result = run_route(5, flows, "lenzen")
        assert result.bulk_bits == 100


def _header_instance(n):
    """Flows of three lengths, so most nodes send several equal-length flows."""
    return {
        s: {
            d: pattern_bits(20 + 13 * ((s + d) % 3), s + 1)
            for d in range(n)
            if d != s
        }
        for s in range(n)
    }


def _transcript_digest(n, scheme, plan):
    """SHA-256 of every node's encoded transcript, or the error text."""
    flow_table = _header_instance(n)

    def prog(node):
        got = yield from route(node, flow_table[node.id], scheme=scheme)
        return {s: b.to_str() for s, b in got.items()}

    clique = CongestedClique(n, bandwidth_multiplier=2, record_transcripts=True)
    try:
        result = clique.run(prog, execution=ExecutionSpec(fault_plan=plan))
    except ProtocolViolation as exc:
        return str(exc)
    text = "|".join(t.encode().to_str() for t in result.transcripts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestHeaderPhase:
    """The length exchange folds headers into ints and shares equal splits."""

    @pytest.mark.parametrize("scheme", ROUTE_SCHEMES)
    def test_equal_length_flows_send_identical_header_chunks(self, scheme):
        n = 7
        flow_table = _header_instance(n)

        def prog(node):
            yield from route(node, flow_table[node.id], scheme=scheme)
            return None

        clique = CongestedClique(n, bandwidth_multiplier=2, record_transcripts=True)
        result = clique.run(prog)
        b = clique.bandwidth
        hdr_rounds = math.ceil(32 / b)
        for t in result.transcripts:
            flows = flow_table[t.node]
            for r in range(hdr_rounds):
                sent = t.rounds[r].sent
                assert sorted(sent) == sorted(flows)
                for d, msg in sent.items():
                    assert msg == BitString(len(flows[d]), 32).split(b)[r]

    # Pinned before the header phase folded its chunks into ints.
    PINNED = {
        ("direct", None): "f71cedac0e373ba3",
        ("relay", None): "bec829c3e902c87b",
        ("lenzen", None): "c5eaa1149cee444e",
        ("direct", "drop=0.05,seed=4"): (
            "all_broadcast: node 0 reassembled 20 bits from node 1, expected 32"
        ),
        ("relay", "drop=0.05,seed=4"): (
            "route(relay): node 0 got chunk index 3 beyond expected 3 from 3"
        ),
        ("lenzen", "drop=0.05,seed=4"): (
            "all_broadcast: node 0 reassembled 20 bits from node 1, expected 32"
        ),
    }

    @pytest.mark.parametrize("scheme, plan", sorted(PINNED, key=str))
    def test_transcripts_match_the_pinned_digest(self, scheme, plan):
        assert _transcript_digest(7, scheme, plan) == self.PINNED[scheme, plan]
