"""The columnar whole-round engine: array programs, validation levels,
and the differential gate against the reference backend."""

import numpy as np
import pytest

from repro.clique.errors import (
    BandwidthExceeded,
    CliqueError,
    DuplicateMessage,
    InvalidAddress,
    RoundLimitExceeded,
)
from repro.clique.network import CongestedClique
from repro.engine import (
    CHECK_LEVELS,
    COLUMNAR_CATALOG,
    NATIVE_RESILIENT,
    BulkBatch,
    ColumnarEngine,
    DualProgram,
    ExecutionSpec,
    array_program,
    resolve_engine,
    run_matrix,
)
from repro.engine.diff import (
    COLUMNAR_FAULT_CATALOG,
    COLUMNAR_FAULT_PLANS,
    catalog_factory,
)
from repro.engine.pool import run_spec
from repro.obs import Observer


class TestDiffGate:
    """The acceptance gate: reference and columnar agree everywhere."""

    def test_full_catalog_all_check_levels(self):
        engines = [
            resolve_engine(name, check=check)
            for check in CHECK_LEVELS
            for name in ("reference", "columnar")
        ]
        cells = run_matrix(
            COLUMNAR_CATALOG,
            engines=engines,
            fault_plan=(None, *COLUMNAR_FAULT_PLANS),
        )
        bad = [c.summary() for c in cells if not c.ok]
        assert not bad, bad
        # Every ported algorithm ran on every column fault-free; the
        # fault catalog and the Byzantine protocols ran every faulty leg.
        faulty = set(COLUMNAR_FAULT_CATALOG) | NATIVE_RESILIENT
        per_column = len(COLUMNAR_CATALOG) + len(faulty) * len(COLUMNAR_FAULT_PLANS)
        assert len(cells) == len(engines) * per_column
        for name in COLUMNAR_FAULT_CATALOG:
            assert {c.leg for c in cells if c.algorithm == name} == {
                "fault-free",
                "faulty",
                "omission",
            }

    @pytest.mark.parametrize("spec", COLUMNAR_FAULT_PLANS)
    @pytest.mark.parametrize("name", COLUMNAR_FAULT_CATALOG)
    def test_every_fault_kind_of_the_faulty_legs_fires(self, name, spec):
        # Spec key -> the fault kind it reports; the gate is not vacuous.
        reported = {
            "drop": "drop",
            "corrupt": "corrupt",
            "duplicate": "duplicate",
            "link": "link_down",
            "crash": "crash",
        }
        keys = [part.split("=")[0] for part in spec.split(",")]
        expected = {reported[key] for key in keys if key in reported}
        result, _ = run_spec(
            catalog_factory({"algorithm": name}),
            execution=ExecutionSpec(engine="columnar", fault_plan=spec),
        )
        assert expected <= set(result.metrics.faults), result.metrics.faults

    def test_catalog_lists_the_ported_algorithms(self):
        assert set(COLUMNAR_CATALOG) >= {
            "fanout",
            "matmul",
            "routing",
            "sorting",
        }

    def test_single_entry_with_config_override(self):
        cells = run_matrix(
            ["fanout"],
            {"n": 16, "seed": 5},
            engines=("reference", "columnar"),
            fault_plan=(None, *COLUMNAR_FAULT_PLANS),
        )
        assert len(cells) == 2 * (1 + len(COLUMNAR_FAULT_PLANS))
        assert all(c.ok for c in cells), [c.summary() for c in cells]


class TestColumnarExecution:
    def test_fanout_matches_fast_engine(self):
        cfg = {"algorithm": "fanout", "n": 32, "rounds": 4, "seed": 2}
        fast, _ = run_spec(catalog_factory(dict(cfg)), execution="fast")
        col, _ = run_spec(catalog_factory(dict(cfg)), execution="columnar")
        assert col.outputs == fast.outputs
        assert col.rounds == fast.rounds
        assert col.total_message_bits == fast.total_message_bits
        assert col.metrics.engine == "columnar"

    def test_plain_generator_program_is_rejected(self):
        def prog(node):
            yield

        clique = CongestedClique(4)
        with pytest.raises(CliqueError, match="array"):
            clique.run(prog, execution="columnar")

    def test_dual_program_runs_on_generator_engines(self):
        cfg = {"algorithm": "fanout", "n": 8, "seed": 0}
        spec = catalog_factory(dict(cfg))
        assert isinstance(spec.program, DualProgram)
        ref, _ = run_spec(catalog_factory(dict(cfg)), execution="reference")
        fast, _ = run_spec(catalog_factory(dict(cfg)), execution="fast")
        assert ref.outputs == fast.outputs

    def test_round_limit_is_enforced(self):
        # The same limit, error and reported rounds on every engine and
        # check level: the round loop is shared.
        cfg = {"algorithm": "fanout", "n": 6, "rounds": 5, "seed": 0}
        spec = catalog_factory(dict(cfg))
        clique = CongestedClique(6, bandwidth_multiplier=2, max_rounds=2)

        class Rounds(Observer):
            def __init__(self):
                self.seen = []

            def on_round(self, stats):
                self.seen.append(stats.round)

        for engine in ("reference", "fast", "columnar"):
            for check in CHECK_LEVELS:
                rounds = Rounds()
                execution = ExecutionSpec(engine=engine, check=check, observer=rounds)
                with pytest.raises(
                    RoundLimitExceeded,
                    match=r"^algorithm did not halt within 2 rounds$",
                ):
                    clique.run(
                        spec.program,
                        spec.node_input,
                        aux=spec.aux,
                        execution=execution,
                    )
                assert rounds.seen == [1, 2], (engine, check)

    def test_resolve_by_name_and_check(self):
        engine = resolve_engine("columnar", check="full")
        assert isinstance(engine, ColumnarEngine)
        assert engine.check == "full"
        assert engine.describe()["engine"] == "columnar"

    def test_describe_is_the_single_instance_cache_key(self):
        # The description is run-cache key material: another key here
        # would turn every warmed columnar cache entry into a miss.
        assert ColumnarEngine(check="full").describe() == {
            "engine": "columnar",
            "check": "full",
        }

    def test_fanout_work_twins_agree(self):
        # The array twin (columnar) against the generator twin (fast):
        # same outputs, rounds, bits and per-node accounting.
        cfg = {
            "algorithm": "fanout_work",
            "n": 24,
            "rounds": 3,
            "state": 64,
            "passes": 2,
            "seed": 4,
        }
        fast, _ = run_spec(catalog_factory(dict(cfg)), execution="fast")
        col, _ = run_spec(catalog_factory(dict(cfg)), execution="columnar")
        assert col.outputs == fast.outputs
        assert col.rounds == fast.rounds == 3
        assert col.total_message_bits == fast.total_message_bits
        assert col.sent_bits == fast.sent_bits
        assert col.received_bits == fast.received_bits

    def test_bulk_channel_delivers(self):
        n = 9
        inputs = [3 * v + 1 for v in range(n)]
        result = CongestedClique(n, max_rounds=10).run(
            _bulk_echo,
            inputs,
            execution=ColumnarEngine(check="bandwidth"),
        )
        assert result.outputs[0] == sum(inputs)
        assert result.rounds == 1
        assert result.bulk_bits == 64 * (n - 1)
        assert result.received_bits[0] == 64 * (n - 1) + (n - 1)


@array_program
def _bulk_echo(ctx):
    # Every node bulk-sends its input to node 0 and broadcasts one bit;
    # node 0 then sums its bulk inbox.
    for v in range(1, ctx.n):
        ctx.bulk_send(BulkBatch(v, 0, int(ctx.inputs[v]), 64))
    ctx.broadcast(np.asarray(ctx.ids, dtype=np.uint64) & np.uint64(1), 1)
    yield
    total = sum(val for (_, dst, val, _) in ctx.inbox_bulk if dst == 0)
    return {v: total + int(ctx.inputs[0]) if v == 0 else 0 for v in range(ctx.n)}


@array_program
def _duplicate_sender(ctx):
    # Node 0 sends two messages to node 1 in the same round.
    src = np.zeros(2, dtype=np.int64)
    dst = np.ones(2, dtype=np.int64)
    ctx.send(src, dst, np.array([1, 2], dtype=np.uint64), 1)
    yield
    return None


@array_program
def _self_sender(ctx):
    ctx.send(
        np.array([1], dtype=np.int64),
        np.array([1], dtype=np.int64),
        np.array([3], dtype=np.uint64),
        1,
    )
    yield
    return None


class TestCheckLevels:
    def test_full_check_rejects_duplicate_slots(self):
        clique = CongestedClique(3)
        with pytest.raises(DuplicateMessage):
            clique.run(_duplicate_sender, execution=ColumnarEngine(check="full"))

    def test_lax_checks_keep_the_last_duplicate(self):
        result = CongestedClique(3).run(
            _duplicate_sender,
            execution=ColumnarEngine(check="bandwidth"),
        )
        assert result.rounds == 1

    def test_full_check_rejects_self_addressing(self):
        clique = CongestedClique(3)
        with pytest.raises(InvalidAddress):
            clique.run(_self_sender, execution=ColumnarEngine(check="full"))

    def test_bandwidth_is_enforced_at_every_level(self):
        @array_program
        def oversend(ctx):
            width = ctx.bandwidth + 1
            ctx.send(
                np.array([0], dtype=np.int64),
                np.array([1], dtype=np.int64),
                np.array([0], dtype=np.uint64),
                width,
            )
            yield
            return None

        for check in ("full", "bandwidth"):
            with pytest.raises(BandwidthExceeded):
                CongestedClique(4).run(oversend, execution=ColumnarEngine(check=check))


def _bulk_round(bulk, unicast=(), broadcasters=()):
    """One round: ``broadcasters`` broadcast, ``unicast`` pairs send, and
    the ``bulk`` pairs go out as one batch of 3-bit flows."""

    @array_program
    def prog(ctx):
        if broadcasters:
            ctx.broadcast(0, 1, senders=list(broadcasters))
        if unicast:
            src, dst = zip(*unicast)
            ctx.send(src, dst, 1, 2)
        src, dst = zip(*bulk)
        ctx.bulk_send(BulkBatch(src, dst, 5, 3))
        yield
        return None

    return prog


_BAD = "bulk send {} -> {} is invalid (n=4)"


class TestBulkChecks:
    """The full check validates a bulk batch with index arithmetic and
    raises the first error a per-flow loop would, type and text."""

    @pytest.mark.parametrize(
        "bulk, unicast, broadcasters, error",
        [
            # A self-send ahead of an out-of-range destination.
            ([(0, 1), (2, 2), (3, 9)], (), (), InvalidAddress(_BAD.format(2, 2))),
            ([(0, 1), (1, 4), (0, 1)], (), (), InvalidAddress(_BAD.format(1, 4))),
            ([(3, 1), (-1, 2)], (), (), InvalidAddress(_BAD.format(-1, 2))),
            # A repeated pair ahead of a misaddressed flow.
            ([(0, 1), (2, 3), (0, 1), (1, 1)], (), (), DuplicateMessage(0, 1)),
            ([(0, 1), (2, 3)], [(1, 0), (2, 3)], (), DuplicateMessage(2, 3)),
            ([(1, 2), (3, 0), (0, 1)], (), [3], DuplicateMessage(3, 0)),
        ],
        ids=["self", "range", "src-range", "repeat", "unicast", "broadcaster"],
    )
    def test_first_error_type_and_text(self, bulk, unicast, broadcasters, error):
        with pytest.raises(CliqueError) as err:
            CongestedClique(4).run(
                _bulk_round(bulk, unicast, broadcasters),
                execution=ColumnarEngine(check="full"),
            )
        assert type(err.value) is type(error)
        assert str(err.value) == str(error)

    def test_lax_checks_leave_the_batch_alone(self):
        result = CongestedClique(4).run(
            _bulk_round([(0, 1), (0, 1)], [(0, 1)]),
            execution=ColumnarEngine(check="bandwidth"),
        )
        assert result.bulk_bits == 6

    def test_accounting_matches_a_flow_loop(self):
        from repro.engine.columnar import _sent_accounting

        rng = np.random.default_rng(7)
        n, flows = 12, 60
        src = rng.integers(0, n, flows)
        dst = (src + rng.integers(1, n, flows)) % n
        counts = rng.integers(0, 5, flows)  # empty flows included
        widths = rng.integers(0, 65, int(counts.sum()))
        values = [int(rng.integers(0, 2**63)) % (1 << int(w)) for w in widths]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        batch = BulkBatch(src, dst, values, widths, offsets)

        sent = np.zeros(n, dtype=np.int64)
        received = np.zeros(n, dtype=np.int64)
        want = []
        for i in range(flows):
            value = nbits = 0
            for j in range(offsets[i], offsets[i + 1]):
                value = (value << int(widths[j])) | values[j]
                nbits += int(widths[j])
            sent[src[i]] += nbits
            received[dst[i]] += nbits
            want.append((int(src[i]), int(dst[i]), value, nbits))
        empty = np.empty(0, dtype=np.int64)
        got_sent, got_received, msg_bits, bulk_bits = _sent_accounting(
            n, empty, empty, empty, empty, batch
        )
        assert list(batch) == want
        assert got_sent.tolist() == sent.tolist()
        assert got_received.tolist() == received.tolist()
        assert (msg_bits, bulk_bits) == (0, sum(w[3] for w in want))
