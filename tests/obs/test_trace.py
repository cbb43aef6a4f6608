"""Structured tracing: event streams, sinks, and sampling."""

import json

import pytest

from repro.clique.bits import BitString
from repro.clique.errors import CliqueError
from repro.clique.network import CongestedClique
from repro.obs import JSONLSink, RingBufferSink, TraceEvent, Tracer
from repro.engine import ExecutionSpec


def chatter(rounds=2):
    def prog(node):
        for _ in range(rounds):
            node.send_to_all(BitString(node.id % 2, 1))
            yield
        return node.id

    return prog


class TestTracer:
    def test_event_stream_shape(self):
        sink = RingBufferSink()
        result = CongestedClique(3).run(
            chatter(2),
            execution=ExecutionSpec(observer=Tracer(sink)),
        )
        events = sink.events()
        assert events[0].kind == "run_start"
        assert events[0].detail["n"] == 3
        assert events[-1].kind == "run_end"
        assert events[-1].round == result.rounds
        kinds = [e.kind for e in events]
        # 2 rounds x 6 deliveries, plus boundaries and 3 outputs.
        assert kinds.count("deliver") == 12
        assert kinds.count("round_end") == 2
        assert kinds.count("output") == 3

    def test_deliver_events_carry_endpoints(self):
        sink = RingBufferSink()
        CongestedClique(3).run(
            chatter(1),
            execution=ExecutionSpec(observer=Tracer(sink)),
        )
        delivers = [e for e in sink.events() if e.kind == "deliver"]
        assert {(e.src, e.dst) for e in delivers} == {
            (s, d) for s in range(3) for d in range(3) if s != d
        }
        assert all(e.bits == 1 for e in delivers)
        assert all(e.channel in ("unicast", "broadcast") for e in delivers)

    def test_sampling_keeps_boundaries(self):
        sink = RingBufferSink()
        CongestedClique(3).run(
            chatter(2),
            execution=ExecutionSpec(observer=Tracer(sink, sample=4)),
        )
        kinds = [e.kind for e in sink.events()]
        # Every 4th of 12 messages -> 3 kept; boundaries never sampled.
        assert kinds.count("deliver") == 3
        assert kinds.count("round_end") == 2
        assert kinds.count("output") == 3
        run_end = sink.events()[-1]
        assert run_end.detail["sampled_out"] == 9

    def test_invalid_sample_rejected(self):
        with pytest.raises(CliqueError):
            Tracer(sample=0)

    def test_default_sink_is_ring_buffer(self):
        tracer = Tracer()
        assert isinstance(tracer.sink, RingBufferSink)


class TestRingBufferSink:
    def test_keeps_most_recent(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.emit(TraceEvent(kind="deliver", round=i))
        assert sink.dropped == 2
        assert len(sink) == 3
        assert [e.round for e in sink.events()] == [2, 3, 4]

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(CliqueError):
            RingBufferSink(capacity=0)


class TestJSONLSink:
    def test_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        CongestedClique(3).run(
            chatter(1),
            execution=ExecutionSpec(observer=Tracer(JSONLSink(path))),
        )
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "run_start"
        assert records[-1]["kind"] == "run_end"
        # None-valued fields are dropped from the JSON objects.
        assert "src" not in records[0]

    def test_accepts_file_object(self, tmp_path):
        with open(tmp_path / "t.jsonl", "w", encoding="utf-8") as fh:
            sink = JSONLSink(fh)
            sink.emit(TraceEvent(kind="run_start", round=0))
            sink.close()  # must not close a caller-owned handle
            assert not fh.closed
        assert sink.emitted == 1
