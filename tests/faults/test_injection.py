"""Engine-level fault injection: both backends honour the same plan,
faults are replayable, accounted honestly, and surfaced through the
observer protocol."""

import pytest

from repro.clique import CliqueGraph, run_algorithm
from repro.clique.bits import BitString
from repro.engine import adapt_generator

ROUNDS = 4
ENGINES = ("reference", "fast")


def chatter(node):
    """Every node sends its id to every peer for a few rounds and logs
    what it hears — maximally fault-sensitive, never fault-fatal."""
    log = []
    for _ in range(ROUNDS):
        for dst in range(node.n):
            if dst != node.id:
                node.send(dst, BitString(node.id, node.bandwidth))
        yield
        log.append(tuple(sorted((src, msg.value) for src, msg in node.inbox.items())))
    return tuple(log)


def bulk_chatter(node):
    """Node 0 ships a bulk payload to node 1 (the reliable channel)."""
    if node.id == 0:
        node._bulk_send(1, BitString(0b10110, 5))
    yield
    if node.id == 1:
        return {src: msg.value for src, msg in node.inbox.items()}
    return None


def _graph(n=9):
    return CliqueGraph.from_edges(n, [(0, 1)])


@pytest.mark.parametrize("engine", ENGINES)
class TestDrops:
    def test_drops_lose_messages_but_charge_the_sender(self, engine):
        g = _graph()
        clean = run_algorithm(chatter, g, engine=engine)
        faulty = run_algorithm(chatter, g, engine=engine, fault_plan="drop=0.4,seed=1")
        # The sender pays for what it queued, delivered or not.
        assert faulty.total_message_bits == clean.total_message_bits
        assert faulty.sent_bits == clean.sent_bits
        # The receivers saw strictly less.
        assert sum(faulty.received_bits) < sum(clean.received_bits)
        drops = faulty.metrics.faults["drop"]
        assert drops > 0
        bits = faulty.metrics.bandwidth
        assert (sum(clean.received_bits) - sum(faulty.received_bits) == drops * bits)

    def test_replay_is_identical(self, engine):
        g = _graph()
        kwargs = dict(engine=engine, fault_plan="drop=0.3,corrupt=0.1,seed=5")
        first = run_algorithm(chatter, g, **kwargs)
        second = run_algorithm(chatter, g, **kwargs)
        assert first.outputs == second.outputs
        assert first.received_bits == second.received_bits
        assert first.metrics.faults == second.metrics.faults

    def test_bulk_channel_is_exempt(self, engine):
        result = run_algorithm(
            bulk_chatter,
            _graph(4),
            engine=engine,
            fault_plan="drop=1.0,corrupt=1.0,seed=2",
        )
        assert result.outputs[1] == {0: 0b10110}
        assert result.bulk_bits == 5


class TestCrossEngineParity:
    """The same plan must inject the same faults on every backend.

    The reference engine decides each message through the scalar
    ``FaultInjector.deliver``; the others go through the shared
    explicit-delivery core and its batched row decisions (columnar in
    array form, as a keep mask, when nothing needs per-message objects).
    """

    @pytest.mark.parametrize("engine", ("fast", "columnar", "sharded"))
    @pytest.mark.parametrize(
        "spec",
        [
            "drop=0.3,seed=1",
            "corrupt=0.4,seed=2",
            "dup=0.3,seed=3",
            "link=0.3,seed=4",
            "crash=0.15,restart=2,seed=5",
            "drop=0.2,corrupt=0.1,dup=0.1,link=0.1,crash=0.05,seed=6",
            "byzantine=equivocate+forge+selective+limited,f=3,seed=7,"
            "byz_rate=0.4,limit=4",
        ],
    )
    def test_engines_agree_on_outputs_and_fault_counts(self, spec, engine):
        g = _graph()
        program = adapt_generator(chatter) if engine == "columnar" else chatter
        ref = run_algorithm(chatter, g, engine="reference", fault_plan=spec)
        other = run_algorithm(program, g, engine=engine, fault_plan=spec)
        assert ref.outputs == other.outputs
        assert ref.sent_bits == other.sent_bits
        assert ref.received_bits == other.received_bits
        assert ref.metrics.faults == other.metrics.faults
        assert ref.metrics.total_faults > 0  # the plan actually fired


@pytest.mark.parametrize("engine", ENGINES)
class TestFaultKinds:
    def test_corruption_preserves_length_and_counts(self, engine):
        g = _graph()
        clean = run_algorithm(chatter, g, engine=engine)
        faulty = run_algorithm(
            chatter, g, engine=engine, fault_plan="corrupt=0.5,seed=3"
        )
        # Corruption flips bits in place: all the accounting matches.
        assert faulty.total_message_bits == clean.total_message_bits
        assert faulty.received_bits == clean.received_bits
        assert faulty.rounds == clean.rounds
        # ... but some node heard a value no peer ever sent.
        assert faulty.outputs != clean.outputs
        assert faulty.metrics.faults["corrupt"] > 0

    def test_duplicates_arrive_one_round_late(self, engine):
        g = _graph()
        clean = run_algorithm(chatter, g, engine=engine)
        faulty = run_algorithm(chatter, g, engine=engine, fault_plan="dup=0.5,seed=4")
        assert faulty.metrics.faults["duplicate"] > 0
        # Duplicates only add received traffic, never sent traffic.
        assert faulty.sent_bits == clean.sent_bits
        assert sum(faulty.received_bits) > sum(clean.received_bits)

    def test_dead_links_silence_both_directions(self, engine):
        result = run_algorithm(
            chatter, _graph(), engine=engine, fault_plan="link=1.0,seed=0"
        )
        # Every message was queued (and charged) but none arrived.
        assert sum(result.sent_bits) > 0
        assert sum(result.received_bits) == 0
        assert all(log == ((),) * ROUNDS for log in result.outputs.values())
        n = 9
        assert result.metrics.faults["link_down"] == ROUNDS * n * (n - 1)

    def test_crashed_nodes_fall_silent(self, engine):
        result = run_algorithm(
            chatter,
            _graph(),
            engine=engine,
            fault_plan="crash=0.2,restart=2,seed=7",
        )
        assert result.metrics.faults["crash"] > 0
        # Crashes are fail-silent: the programs all still return.
        assert len(result.outputs) == 9


class TestObservability:
    def test_tracer_records_fault_events(self):
        from repro.obs import RingBufferSink, Tracer

        sink = RingBufferSink(capacity=4096)
        run_algorithm(
            chatter,
            _graph(),
            engine="reference",
            observer=Tracer(sink=sink),
            fault_plan="drop=0.4,seed=1",
        )
        faults = [e for e in sink.events() if e.kind == "fault"]
        assert faults
        assert all(e.channel == "drop" for e in faults)
        assert all(e.src is not None and e.dst is not None for e in faults)

    def test_metrics_split_faults_per_round(self):
        result = run_algorithm(
            chatter,
            _graph(),
            engine="fast",
            fault_plan="drop=0.4,seed=1",
        )
        per_round = sum(r.faults for r in result.metrics.per_round)
        assert per_round == result.metrics.total_faults > 0

    def test_summarise_metrics_rolls_up_fault_totals(self):
        from repro.obs import summarise_metrics

        g = _graph()
        faulty = run_algorithm(chatter, g, engine="fast", fault_plan="drop=0.4,seed=1")
        clean = run_algorithm(chatter, g, engine="fast")
        summary = summarise_metrics([faulty.metrics, clean.metrics])
        assert summary["total_faults"] == faulty.metrics.total_faults
        # Fault-free summaries keep their historical shape.
        assert "total_faults" not in summarise_metrics([clean.metrics])
