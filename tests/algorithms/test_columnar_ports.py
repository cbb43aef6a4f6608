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
