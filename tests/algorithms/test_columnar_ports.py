"""The columnar catalog ports (routing, matmul, sorting) against their
generator twins at sizes the n=8 differential matrix does not reach."""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms.columnar import _take_bits, array_all_broadcast
from repro.clique.bits import BitReader, BitString
from repro.clique.errors import EncodingError, ProtocolViolation
from repro.engine.diff import Cell, catalog_factory, compare
from repro.engine.pool import run_spec
from repro.engine.spec import ExecutionSpec

TWIN_CASES = [
    # n * key_width > 64: the wide (big-int) all_broadcast path.
    {"algorithm": "sorting", "n": 33},
    {"algorithm": "sorting", "n": 20, "keys_per_node": 40},
    # n=30: the cube side g=3 leaves three of the 30 nodes outside it.
    {"algorithm": "matmul", "n": 30},
    {"algorithm": "matmul", "n": 64},
    {"algorithm": "matmul", "n": 125},
    {"algorithm": "routing", "n": 40, "scheme": "relay"},
    {"algorithm": "routing", "n": 64, "scheme": "relay"},
    {"algorithm": "routing", "n": 64, "scheme": "direct"},
    {"algorithm": "routing", "n": 64, "scheme": "lenzen"},
]


@pytest.mark.parametrize(
    "config", TWIN_CASES, ids=lambda c: "-".join(str(v) for v in c.values())
)
@pytest.mark.parametrize(
    "execution",
    [
        {"engine": "columnar"},
        # Transcripts force the explicit per-message delivery path.
        {"engine": "columnar", "transcripts": True},
    ],
    ids=["columnar", "columnar-explicit"],
)
def test_columnar_port_matches_generator_twin(config, execution):
    # compare(): outputs, rounds, message and bulk bits, per-node sent
    # and received bits, counters and RunMetrics.
    cells = [
        Cell(
            config["algorithm"],
            column,
            result=run_spec(
                catalog_factory(config), execution=ExecutionSpec(**spec)
            )[0],
        )
        for column, spec in (("fast", {"engine": "fast"}), ("columnar", execution))
    ]
    assert compare(*cells) == []


@pytest.mark.parametrize("engine", ["reference", "fast", "columnar"])
def test_relay_header_naming_a_missing_node_is_a_protocol_violation(engine):
    # An equivocating node rewrites a spread header to name node 18 of a
    # 17-node clique (the 5-bit peer field reaches 31).
    with pytest.raises(ProtocolViolation) as err:
        run_spec(
            catalog_factory({"algorithm": "routing", "n": 17, "seed": 0}),
            execution=ExecutionSpec(
                engine=engine,
                fault_plan="byzantine=equivocate+selective,f=1,seed=2",
            ),
        )
    assert str(err.value) == (
        "route(relay): node 0 got a chunk from 15 for nonexistent node 18"
    )


@pytest.mark.parametrize(
    "scheme, message",
    [
        (
            "direct",
            "route: node 4 got a chunk from 6, which announced no flow to it",
        ),
        # A replayed 1-bit status message lands in a data round.
        (
            "relay",
            "route(relay): node 5 got a 1-bit message from 0; relay frames "
            "are 6 bits",
        ),
    ],
)
def test_replayed_messages_fail_alike_on_every_engine(scheme, message):
    errors = []
    for engine in ("reference", "fast", "columnar"):
        with pytest.raises(ProtocolViolation) as err:
            run_spec(
                catalog_factory(
                    {"algorithm": "routing", "n": 8, "seed": 0, "scheme": scheme}
                ),
                execution=ExecutionSpec(
                    engine=engine, fault_plan="duplicate=0.05,seed=5"
                ),
            )
        errors.append(str(err.value))
    assert errors == [message] * 3


def _outcome(config, engine, plan):
    try:
        result = run_spec(
            catalog_factory(config),
            execution=ExecutionSpec(engine=engine, fault_plan=plan),
        )[0]
    except Exception as exc:  # the error is the outcome
        return f"{type(exc).__name__}: {exc}"
    return result.rounds, result.total_message_bits, result.bulk_bits, repr(
        sorted(result.outputs.items())
    )


@pytest.mark.parametrize(
    "config, plan, want",
    [
        # A replayed message from an earlier round lands in the first
        # charged round of a lenzen route; the generator twin reads it as
        # a received flow unless a bulk flow takes its link.
        (
            {"algorithm": "routing", "n": 8, "seed": 0, "scheme": "lenzen"},
            "duplicate=0.05,seed=5",
            15,
        ),
        (
            {"algorithm": "sorting", "n": 8, "seed": 1},
            "duplicate=0.1,seed=1",
            "ProtocolViolation: route(lenzen): node 2 expected 3 bits from 4, "
            "got 2",
        ),
        (
            {"algorithm": "matmul", "n": 8, "seed": 1},
            "duplicate=0.1,seed=1",
            "EncodingError: read of 48 bits at offset 0 overruns 2-bit message",
        ),
        # Not a replay: a corrupted route length pushes node 4's payload
        # load past the 32-bit agreement width, and the twin's BitString
        # raises before the first broadcast; the columnar gather must
        # not cut the value down to the width instead.
        (
            {"algorithm": "matmul", "n": 8, "seed": 0},
            "drop=0.2,corrupt=0.2,dup=0.3,seed=3",
            "EncodingError: value 4332733526 does not fit in 32 bits",
        ),
    ],
    ids=["routing", "sorting", "matmul", "matmul-agreed-load-overflow"],
)
def test_lenzen_replays_are_read_alike_on_every_engine(config, plan, want):
    outcomes = [
        _outcome(config, engine, plan) for engine in ("reference", "fast", "columnar")
    ]
    assert outcomes[1:] == outcomes[:1] * 2
    if isinstance(want, int):
        assert outcomes[0][0] == want
        # The replay changes the output: it is not the fault-free one.
        assert outcomes[0] != _outcome(config, "reference", None)
    else:
        assert outcomes[0] == want


@pytest.mark.parametrize(
    "config",
    [{"algorithm": name, "n": n} for name in ("matmul", "sorting") for n in (27, 30)],
    ids=lambda c: f"{c['algorithm']}-{c['n']}",
)
def test_bulk_payload_transcripts_match_the_generator_twin(config):
    runs = [
        run_spec(
            catalog_factory(config),
            execution=ExecutionSpec(engine=engine, transcripts=True),
        )[0]
        for engine in ("fast", "columnar")
    ]
    assert runs[0].bulk_bits > 0
    assert runs[1].transcripts == runs[0].transcripts


def test_matmul_entry_above_max_entry_fails_alike():
    # max_entry=8 gives 4-bit entries.  Node 3's unfit B entry (column 5)
    # is encoded for cube node t=1, before its unfit A entry (column 6)
    # for t=2; node 5's unfit entry comes later still.
    errors = []
    for engine in ("fast", "columnar"):
        spec = catalog_factory({"algorithm": "matmul", "n": 8, "seed": 0})
        spec.node_input[3][0][6] = 20
        spec.node_input[3][1][5] = 30
        spec.node_input[5][0][0] = 40
        with pytest.raises(EncodingError) as err:
            run_spec(spec, execution=ExecutionSpec(engine=engine))
        errors.append(str(err.value))
    assert errors == ["value 30 does not fit in 4 bits"] * 2


@pytest.mark.parametrize("pos, width", [(0, 6), (2, 4)])
def test_short_matmul_chunk_raises_the_bit_reader_overrun(pos, width):
    # matmul's receive side slices payload ints instead of reading them
    # through a BitReader; a short chunk must fail the same way.
    reader = BitReader(BitString(0b10110, 5))
    reader.read_bits(pos)
    with pytest.raises(EncodingError) as want:
        reader.read_bits(width)
    with pytest.raises(EncodingError) as got:
        _take_bits(0b10110, 5, pos, width)
    assert str(got.value) == str(want.value)


def test_relay_routing_allocates_no_per_pair_queues():
    # Per-pair queues for every ordered pair peaked at ~100 MiB here; the
    # per-link queues of the 512 flows stay a few MiB.  Allocation, not
    # timing, so the bound is stable across machines.
    spec = catalog_factory({"algorithm": "routing", "n": 256})
    tracemalloc.start()
    try:
        run_spec(spec, execution=ExecutionSpec("columnar"))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class _AlternatingContext:
    """A stand-in ArrayContext whose rounds alternate between broadcast
    delivery and explicit per-recipient delivery, with every chunk
    delivered intact."""

    def __init__(self, n, bandwidth):
        self.n = n
        self.bandwidth = bandwidth
        self.rounds = 0
        self._out = None

    def broadcast(self, values, width):
        self._out = (np.asarray(values, dtype=np.uint64), width)

    def _explicit(self):
        return self.rounds % 2 == 0

    @property
    def inbox_broadcast(self):
        values, width = self._out
        if self._explicit():
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.astype(np.uint64), empty
        senders = np.arange(self.n, dtype=np.int64)
        return senders, values, np.full(self.n, width, dtype=np.int64)

    @property
    def inbox_messages(self):
        values, width = self._out
        pairs = [(s, d) for s in range(self.n) for d in range(self.n) if s != d]
        src = np.asarray([s for s, _ in pairs], dtype=np.int64)
        dst = np.asarray([d for _, d in pairs], dtype=np.int64)
        return src, dst, values[src], np.full(src.size, width, dtype=np.int64)


def test_wide_all_broadcast_mixes_broadcast_and_explicit_rounds():
    n, b, k = 5, 8, 70  # 70-bit payloads: the per-source big-int path
    payloads = [(v * 0x1F3D5B79A3C2E1F7 + 12345) % (1 << k) for v in range(n)]
    ctx = _AlternatingContext(n, b)
    gen = array_all_broadcast(ctx, payloads, k)
    try:
        next(gen)
        while True:
            ctx.rounds += 1
            next(gen)
    except StopIteration as stop:
        rows = stop.value
    assert ctx.rounds == -(-k // b)
    assert rows == [payloads] * n
