"""The ack/retransmit resilience layer: protocol pieces, fault masking
at honest cost, strict mode, and the catalog differential check."""

import pytest

from repro.clique import CliqueGraph, run_algorithm
from repro.clique.bits import BitString
from repro.clique.errors import (
    CliqueError,
    FaultInjected,
    InvalidAddress,
    ProtocolViolation,
)
from repro.engine import NATIVE_RESILIENT, RESILIENT_CATALOG, ExecutionSpec, run_matrix
from repro.engine.diff import catalog_factory
from repro.engine.pool import run_spec
from repro.faults import HEADER_BITS, attempt_offsets, resilient
from repro.faults.resilience import _decode_frame, _encode_frame

ENGINES = ("reference", "fast")


def exchange(node):
    """Two logical rounds of all-to-all id exchange."""
    heard = []
    for _ in range(2):
        for dst in range(node.n):
            if dst != node.id:
                node.send(dst, BitString(node.id, node.bandwidth))
        yield
        heard.append(tuple(sorted((src, msg.value) for src, msg in node.inbox.items())))
    return tuple(heard)


def _graph(n=8):
    return CliqueGraph.from_edges(n, [(0, 1)])


class TestAttemptOffsets:
    def test_capped_exponential_schedule(self):
        assert attempt_offsets(2, 5, 8) == (0, 2, 6, 14, 22)
        assert attempt_offsets(2, 1, 2) == (0,)
        assert attempt_offsets(3, 3, 100) == (0, 3, 9)

    def test_validation(self):
        with pytest.raises(CliqueError, match="timeout"):
            attempt_offsets(1, 3, 8)
        with pytest.raises(CliqueError, match="max_attempts"):
            attempt_offsets(2, 0, 8)
        with pytest.raises(CliqueError, match="backoff_cap"):
            attempt_offsets(4, 3, 2)


class TestFrames:
    @pytest.mark.parametrize("parity", (0, 1))
    @pytest.mark.parametrize("payload", (None, BitString(0b101, 3)))
    @pytest.mark.parametrize("has_ack", (False, True))
    def test_roundtrip(self, parity, payload, has_ack):
        frame = _encode_frame(parity, payload, has_ack)
        assert len(frame) == HEADER_BITS + (len(payload) if payload else 0)
        assert _decode_frame(frame) == (parity, payload, has_ack)

    def test_garbled_frames_decode_to_none(self):
        assert _decode_frame(BitString(1, 2)) is None  # shorter than header
        # has_data set but no data bits follow: corruption artifact.
        assert _decode_frame(BitString(0b010, 3)) is None


class TestWrapperContract:
    def test_needs_headroom_for_the_header(self):
        # n=8 gives a 3-bit default bandwidth == HEADER_BITS: too small.
        with pytest.raises(CliqueError, match="bandwidth"):
            run_algorithm(resilient(exchange), _graph(8))

    def test_bulk_channel_is_rejected(self):
        def bulk_prog(node):
            node._bulk_send(1, BitString(1, 1))
            yield

        with pytest.raises(ProtocolViolation, match="bulk"):
            run_algorithm(resilient(bulk_prog), _graph(8), bandwidth_multiplier=2)

    def test_proxy_validates_sends(self):
        def self_send(node):
            node.send(node.id, BitString(1, 1))
            yield

        with pytest.raises(InvalidAddress):
            run_algorithm(resilient(self_send), _graph(8), bandwidth_multiplier=2)

    def test_wrapped_name_is_derived(self):
        assert resilient(exchange).__name__ == "resilient_exchange"


class TestMasking:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_reliable_network_matches_plain_run(self, engine):
        g = _graph(8)
        plain = run_algorithm(exchange, g, bandwidth_multiplier=2)
        wrapped = run_algorithm(
            resilient(exchange, strict=True),
            g,
            bandwidth_multiplier=2,
            execution=engine,
        )
        assert wrapped.outputs == plain.outputs

    @pytest.mark.parametrize("engine", ENGINES)
    def test_drops_are_masked_at_honest_cost(self, engine):
        g = _graph(8)
        plain = run_algorithm(exchange, g, bandwidth_multiplier=2)
        wrapped = run_algorithm(
            resilient(exchange, max_attempts=6),
            g,
            bandwidth_multiplier=2,
            execution=ExecutionSpec(engine=engine, fault_plan="drop=0.3,seed=2"),
        )
        # Same logical outcome as a fault-free unwrapped run...
        assert wrapped.outputs == plain.outputs
        # ... paid for with real rounds and real bits, all metered.
        assert wrapped.rounds > plain.rounds
        assert wrapped.total_message_bits > plain.total_message_bits
        assert wrapped.metrics.faults["drop"] > 0
        retransmits = sum(c.get("resilient_retransmits", 0) for c in wrapped.counters)
        assert retransmits > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_crashes_with_restart_window_are_masked(self, engine):
        # A crashed node heals after 3 rounds, so a retransmission
        # schedule that outlives the window masks the outage entirely.
        g = _graph(8)
        plain = run_algorithm(exchange, g, bandwidth_multiplier=2)
        wrapped = run_algorithm(
            resilient(exchange, max_attempts=8),
            g,
            bandwidth_multiplier=2,
            execution=ExecutionSpec(
                engine=engine,
                fault_plan="crash=0.04,restart=3,seed=5",
            ),
        )
        assert wrapped.outputs == plain.outputs
        assert wrapped.metrics.faults["crash"] > 0
        # The rollup property mirrors the per-node counters.
        assert wrapped.resilience["retransmits"] == sum(
            c.get("resilient_retransmits", 0) for c in wrapped.counters
        )
        assert wrapped.resilience["retransmits"] > 0
        assert wrapped.metrics.resilience == wrapped.resilience

    def test_masking_is_deterministic(self):
        g = _graph(8)
        kwargs = dict(
            bandwidth_multiplier=2,
            execution=ExecutionSpec(engine="fast", fault_plan="drop=0.3,seed=2"),
        )
        a = run_algorithm(resilient(exchange), g, **kwargs)
        b = run_algorithm(resilient(exchange), g, **kwargs)
        assert a.outputs == b.outputs
        assert a.total_message_bits == b.total_message_bits

    def test_strict_mode_surfaces_unmaskable_faults(self):
        # A permanently dead link defeats any retransmission schedule.
        with pytest.raises(FaultInjected, match="unacknowledged") as excinfo:
            run_algorithm(
                resilient(exchange, max_attempts=2, strict=True),
                _graph(8),
                bandwidth_multiplier=2,
                execution=ExecutionSpec(fault_plan="link=1.0,seed=0"),
            )
        assert excinfo.value.kind == "unacked"


class TestCatalogDifferential:
    def test_resilient_catalog_matches_fault_free_reference(self):
        cells = run_matrix(
            RESILIENT_CATALOG,
            {"n": 9, "seed": 3},
            fault_plan="drop=0.25,seed=11",
        )
        assert all(c.ok for c in cells), [c.summary() for c in cells if not c.ok]
        assert list(dict.fromkeys(c.algorithm for c in cells)) == list(
            RESILIENT_CATALOG
        )
        for name in RESILIENT_CATALOG:
            row = [c for c in cells if c.algorithm == name]
            free = [c for c in row if c.plan is None]
            faulty = [c for c in row if c.plan is not None]
            assert [c.column for c in faulty] == ["reference@full", "fast@bandwidth"]
            if name in NATIVE_RESILIENT:
                # Native entries are compared engine against engine
                # under the plan; there is no fault-free baseline run.
                assert not free
                assert all(not c.wrapped and c.label.startswith(name) for c in faulty)
                continue
            # Wrapped entries: one fault-free baseline whose outputs every
            # faulty cell reproduces, at a masking overhead that is real
            # and visible per backend.
            assert len(free) == 1
            for cell in faulty:
                assert cell.wrapped and cell.label.startswith(f"resilient:{name}@")
                assert cell.result.rounds > free[0].result.rounds

    def test_wrapped_cells_are_held_to_fault_free_outputs(self, monkeypatch):
        # Every engine returns the same wrong output under the plan, so
        # the engines agree with each other; only the fault-free check
        # can catch it.
        import dataclasses

        import repro.engine.diff as diff

        def lossy(spec, *, execution):
            result, value = run_spec(spec, execution=execution)
            if execution.fault_plan is not None:
                outputs = {**result.outputs, 0: "lost"}
                result = dataclasses.replace(result, outputs=outputs)
            return result, value

        monkeypatch.setattr(diff, "run_spec", lossy)
        free, *faulty = run_matrix(["bfs"], {"n": 6}, fault_plan="drop=0.2,seed=1")
        assert free.ok and len(faulty) == 2
        for cell in faulty:
            assert cell.mismatches == [
                f"node 0 output: reference@full={free.result.outputs[0]!r} "
                f"{cell.column}='lost'"
            ]

    def test_bulk_algorithms_are_rejected(self):
        spec = catalog_factory({"algorithm": "kds", "n": 9, "seed": 3})
        spec.program = resilient(spec.program)
        with pytest.raises(ProtocolViolation, match="bulk"):
            run_spec(
                spec,
                execution=ExecutionSpec(engine="reference", fault_plan="drop=0.1"),
            )
        # So kds sits out the faulty legs of the matrix.
        cells = run_matrix(["kds"], {"n": 9, "seed": 3}, fault_plan="drop=0.1")
        assert cells == []
