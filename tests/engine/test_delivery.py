"""Explicit delivery (``repro.engine.delivery``).

The fast engine delivers message by message through the shared row
core (``deliver_rows``); the columnar engine delivers every round that
has a fault plan, transcripts or a per-message observer through one
keep-mask path (``deliver_columns``).  A per-message observer must not
change the inbox columns the program sees, order included, and both
engines must agree with the reference engine's scalar loop and with
each other on transcripts, per-link metrics, faults and delivery
events, for a generator program bridged onto columnar and for a native
array program.
"""

from collections import Counter

import pytest

from repro.clique import CliqueGraph, run_algorithm
from repro.clique.bits import BitString
from repro.clique.network import CongestedClique
from repro.engine import (
    BulkBatch,
    ColumnarEngine,
    ExecutionSpec,
    FastEngine,
    adapt_generator,
    array_program,
)
from repro.engine.diff import catalog_factory
from repro.engine.pool import run_spec
from repro.obs import CompositeObserver, MetricsCollector, RingBufferSink, Tracer

N = 9
PLANS = [
    "drop=0.3,seed=1",
    "drop=0.2,link=0.1,crash=0.1,restart=2,seed=2",
    "byzantine=selective+limited,f=3,seed=4,byz_rate=0.5,limit=3",
    "drop=0.2,corrupt=0.2,dup=0.3,seed=3",
    "byzantine=equivocate+forge+selective+limited,f=3,seed=5,byz_rate=0.4,limit=4",
    "dup=0.5,byzantine=forge,f=4,seed=6,byz_rate=0.6",
]


def _probe(log: list, collide: bool):
    """Even nodes broadcast, odd nodes unicast twice and bulk-send once;
    ``collide`` adds repeated slots that only lax checks accept."""

    @array_program
    def probe(ctx):
        ids = ctx.ids
        even, odd = ids[ids % 2 == 0], ids[ids % 2 == 1]
        for r in range(5):
            ctx.broadcast(even * 5 + r, 6, senders=even)
            ctx.send(odd, (odd + 1) % N, odd + 40 + r, 7)
            ctx.send(odd, (odd + 3) % N, odd + 20, 5)
            for v in odd.tolist():
                ctx.bulk_send(BulkBatch(v, (v + 5) % N, 12345 + r, 20))
            if collide:
                ctx.send(odd, (odd + 1) % N, odd + 90, 7)
                ctx.broadcast(50 + r, 6, senders=[1])
            yield
            log.append(tuple(col.tolist() for col in ctx.inbox_messages))
        return None

    return probe


def _inboxes(spec: str, check: str, collide: bool, per_message: bool):
    log: list = []
    result = CongestedClique(N, bandwidth=8).run(
        _probe(log, collide),
        execution=ExecutionSpec(
            engine=ColumnarEngine(check=check),
            observer=MetricsCollector(links=per_message),
            fault_plan=spec,
        ),
    )
    return log, result


@pytest.mark.parametrize("spec", PLANS)
@pytest.mark.parametrize(
    "check, collide", [("full", False), ("bandwidth", True)]
)
def test_masked_columns_equal_per_message_columns(spec, check, collide):
    masked, masked_run = _inboxes(spec, check, collide, per_message=False)
    explicit, explicit_run = _inboxes(spec, check, collide, per_message=True)
    assert masked == explicit
    assert masked_run.received_bits == explicit_run.received_bits
    assert masked_run.metrics.faults == explicit_run.metrics.faults
    assert masked_run.metrics.total_faults > 0


def talker(node):
    """Unicasts to every peer, except node 0, which bulk-sends to node 1."""
    log = []
    for r in range(4):
        for dst in range(node.n):
            if dst == node.id:
                continue
            if node.id == 0 and dst == 1:
                node._bulk_send(1, BitString(r + 5, 12))
            else:
                node.send(dst, BitString((node.id + r) % 8, 3))
        yield
        log.append(tuple(sorted((s, m.value) for s, m in node.inbox.items())))
    return tuple(log)


@pytest.mark.parametrize("spec", PLANS)
@pytest.mark.parametrize(
    "engine",
    [FastEngine(), FastEngine(shuffle_seed=3), "columnar"],
    ids=["fast", "fast-shuffled", "columnar"],
)
def test_per_message_core_matches_reference(spec, engine):
    """Transcripts and per-link metrics through the shared core equal the
    reference engine's scalar loop, under every plan."""
    g = CliqueGraph.from_edges(N, [(0, 1)])
    program = adapt_generator(talker) if engine == "columnar" else talker

    def run(prog, eng):
        return run_algorithm(
            prog,
            g,
            execution=ExecutionSpec(
                engine=eng,
                fault_plan=spec,
                transcripts=True,
                observer=MetricsCollector(links=True),
            ),
        )

    ref, other = run(talker, "reference"), run(program, engine)
    assert ref.outputs == other.outputs
    assert ref.received_bits == other.received_bits
    assert ref.transcripts == other.transcripts
    assert ref.metrics.link_bits == other.metrics.link_bits
    assert ref.metrics.faults == other.metrics.faults
    assert ref.metrics.total_faults > 0


@pytest.mark.parametrize("spec", PLANS)
@pytest.mark.parametrize("check", ["full", "bandwidth"])
def test_native_array_program_matches_fast(spec, check):
    """The fanout entry's array form (broadcasts, expanded by the
    keep-mask path) against its generator form on the fast engine."""

    def run(engine):
        metrics = MetricsCollector(links=True)
        tracer = Tracer(RingBufferSink(capacity=1 << 20))
        result, _ = run_spec(
            catalog_factory({"algorithm": "fanout", "n": N, "rounds": 4}),
            execution=ExecutionSpec(
                engine=engine,
                fault_plan=spec,
                transcripts=True,
                observer=CompositeObserver(metrics, tracer),
            ),
        )
        delivered = Counter(
            (e.round, e.src, e.dst, e.bits, e.channel)
            for e in tracer.sink.events()
            if e.kind == "deliver"
        )
        return result, metrics.run_metrics(), delivered

    fast, fast_metrics, fast_events = run(FastEngine())
    col, col_metrics, col_events = run(ColumnarEngine(check=check))
    assert fast.outputs == col.outputs
    assert fast.received_bits == col.received_bits
    assert fast.transcripts == col.transcripts
    assert fast_metrics.link_bits == col_metrics.link_bits
    assert fast_metrics.faults == col_metrics.faults
    assert fast_events == col_events
    assert sum(fast_events.values()) > 0
    assert fast_metrics.total_faults > 0
