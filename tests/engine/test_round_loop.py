"""The one round loop (``Engine.execute``): every engine reports the same
observer events in the same order and ends a run by the same rule, and
``check=None`` means each engine's own default level."""

import pytest

from repro.clique.bits import BitString
from repro.clique.errors import CliqueError
from repro.clique.network import CongestedClique
from repro.engine import (
    ColumnarEngine,
    DualProgram,
    ExecutionSpec,
    FastEngine,
    ReferenceEngine,
    adapt_generator,
)
from repro.engine.diff import catalog_factory
from repro.engine.pool import run_spec
from repro.obs import Observer

ENGINES = ("reference", "fast", "columnar")

#: Catalog points with a columnar form, and the length of their event
#: sequence (run start and end, a round and a phases event per round,
#: one phases event before the first round, one halt per node).
POINTS = [
    ({"algorithm": "fanout", "n": 8}, 17),
    ({"algorithm": "matmul", "n": 8}, 73),
    ({"algorithm": "bracha", "n": 8, "f": 1}, 23),
]


class Recorder(Observer):
    """Logs ``(event, round[, node])`` and the phase names per run."""

    wants_timing = True
    wants_halts = True

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.phases: set[str] = set()

    def on_run_start(self, *, n: int, bandwidth: int, engine: str) -> None:
        self.events.append(("start",))

    def on_round(self, stats) -> None:
        self.events.append(("round", stats.round))

    def on_halt(self, *, round: int, node: int) -> None:
        self.events.append(("halt", round, node))

    def on_phases(self, *, round: int, seconds: dict) -> None:
        self.events.append(("phases", round))
        self.phases.update(seconds)

    def on_run_end(self, *, rounds: int, counters: tuple) -> None:
        self.events.append(("end", rounds))


def _record(config: dict, engine: str) -> Recorder:
    recorder = Recorder()
    run_spec(
        catalog_factory(dict(config)),
        execution=ExecutionSpec(engine=engine, observer=recorder),
    )
    return recorder


@pytest.mark.parametrize("config, length", POINTS, ids=lambda p: str(p))
def test_every_engine_reports_the_same_event_sequence(config, length):
    reference, fast, columnar = (_record(config, engine) for engine in ENGINES)
    assert len(reference.events) == length
    assert fast.events == reference.events
    assert columnar.events == reference.events
    rounds = reference.events[-1][1]
    assert reference.events[0] == ("start",)
    assert [e for e in reference.events if e[0] == "round"] == [
        ("round", r) for r in range(1, rounds + 1)
    ]
    assert [e for e in reference.events if e[0] == "phases"] == [
        ("phases", r) for r in range(rounds + 1)
    ]
    assert len([e for e in reference.events if e[0] == "halt"]) == config["n"]


@pytest.mark.parametrize("config", [c for c, _ in POINTS], ids=str)
def test_phase_names_per_engine(config):
    # perfbench's per-layer rows read these names: only the reference
    # engine times its model-variant checks as a phase of their own.
    phases = {engine: _record(config, engine).phases for engine in ENGINES}
    assert phases == {
        "reference": {"spawn", "advance", "validate", "deliver"},
        "fast": {"spawn", "advance", "deliver"},
        "columnar": {"spawn", "advance", "deliver"},
    }


@pytest.mark.parametrize("cls", [ReferenceEngine, FastEngine, ColumnarEngine])
class TestCheckDefault:
    def test_none_is_the_engine_default(self, cls):
        assert cls(check=None).describe() == cls().describe()

    @pytest.mark.parametrize("level", ["off", "sorta", True])
    def test_unknown_level_raises(self, cls, level):
        with pytest.raises(CliqueError, match="check must be one of"):
            cls(check=level)


def _bulk_then_return(node):
    if node.id == 0:
        node._bulk_send(1, BitString(5, 80))
    return node.id
    yield  # a generator that returns before its first round


def test_traffic_queued_by_returning_nodes_is_delivered_on_every_engine():
    # Termination is "no live program and nothing queued": the bulk send
    # of a node that returns at once still takes one round everywhere,
    # the columnar generator bridge included.
    program = DualProgram(_bulk_then_return, adapt_generator(_bulk_then_return))
    for engine in ENGINES:
        result = CongestedClique(4).run(program, execution=engine)
        assert result.rounds == 1, engine
        assert result.bulk_bits == 80, engine
        assert result.received_bits == (0, 80, 0, 0), engine
