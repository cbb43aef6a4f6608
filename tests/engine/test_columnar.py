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
    COLUMNAR_CATALOG,
    ColumnarEngine,
    DualProgram,
    array_program,
    diff_columnar,
    resolve_engine,
)
from repro.engine.diff import (
    COLUMNAR_FAULT_CATALOG,
    COLUMNAR_FAULT_PLANS,
    catalog_factory,
)
from repro.engine.pool import run_spec


class TestDiffGate:
    """The acceptance gate: reference and columnar agree everywhere."""

    def test_full_catalog_all_check_levels(self):
        reports = diff_columnar()
        bad = [r.summary() for r in reports if not r.ok]
        assert not bad, bad
        # Every ported algorithm ran at every check level, plus one
        # faulty comparison per fault-catalog entry and faulty leg.
        expected = 3 * len(COLUMNAR_CATALOG) + len(COLUMNAR_FAULT_CATALOG) * len(
            COLUMNAR_FAULT_PLANS
        )
        assert len(reports) == expected
        labels = {r.label for r in reports}
        for name in COLUMNAR_FAULT_CATALOG:
            assert {f"{name}@faulty", f"{name}@omission"} <= labels

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
            catalog_factory({"algorithm": name}), "columnar", fault_plan=spec
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
        reports = diff_columnar(["fanout"], {"n": 16, "seed": 5})
        assert all(r.ok for r in reports), [r.summary() for r in reports]


class TestColumnarExecution:
    def test_fanout_matches_fast_engine(self):
        cfg = {"algorithm": "fanout", "n": 32, "rounds": 4, "seed": 2}
        fast, _ = run_spec(catalog_factory(dict(cfg)), "fast")
        col, _ = run_spec(catalog_factory(dict(cfg)), "columnar")
        assert col.outputs == fast.outputs
        assert col.rounds == fast.rounds
        assert col.total_message_bits == fast.total_message_bits
        assert col.metrics.engine == "columnar"

    def test_plain_generator_program_is_rejected(self):
        def prog(node):
            yield

        clique = CongestedClique(4)
        with pytest.raises(CliqueError, match="array"):
            clique.run(prog, engine="columnar")

    def test_dual_program_runs_on_generator_engines(self):
        cfg = {"algorithm": "fanout", "n": 8, "seed": 0}
        spec = catalog_factory(dict(cfg))
        assert isinstance(spec.program, DualProgram)
        ref, _ = run_spec(catalog_factory(dict(cfg)), "reference")
        fast, _ = run_spec(catalog_factory(dict(cfg)), "fast")
        assert ref.outputs == fast.outputs

    def test_round_limit_is_enforced(self):
        cfg = {"algorithm": "fanout", "n": 6, "rounds": 5, "seed": 0}
        spec = catalog_factory(dict(cfg))
        clique = CongestedClique(6, bandwidth_multiplier=2, max_rounds=2)
        with pytest.raises(RoundLimitExceeded):
            clique.run(spec.program, spec.node_input, aux=spec.aux, engine="columnar")

    def test_resolve_by_name_and_check(self):
        engine = resolve_engine("columnar", check="off")
        assert isinstance(engine, ColumnarEngine)
        assert engine.check == "off"
        assert engine.describe()["engine"] == "columnar"


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
            clique.run(_duplicate_sender, engine=ColumnarEngine(check="full"))

    def test_lax_checks_keep_the_last_duplicate(self):
        result = CongestedClique(3).run(
            _duplicate_sender, engine=ColumnarEngine(check="bandwidth")
        )
        assert result.rounds == 1

    def test_full_check_rejects_self_addressing(self):
        clique = CongestedClique(3)
        with pytest.raises(InvalidAddress):
            clique.run(_self_sender, engine=ColumnarEngine(check="full"))

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
                CongestedClique(4).run(
                    oversend, engine=ColumnarEngine(check=check)
                )
