"""Phase timing: PhaseTimer bookkeeping and the Profiler observer."""

import pytest

from repro.clique.bits import BitString
from repro.clique.network import CongestedClique
from repro.obs import PhaseTimer, Profiler
from repro.engine import ExecutionSpec


def prog(node):
    node.send((node.id + 1) % node.n, BitString(1, 1))
    yield
    return None


class TestPhaseTimer:
    def test_accumulates_per_phase(self):
        timer = PhaseTimer()
        timer.start("a")
        timer.start("b")  # implicitly closes "a"
        timer.stop()
        seconds = timer.flush()
        assert set(seconds) == {"a", "b"}
        assert all(s >= 0 for s in seconds.values())
        assert timer.flush() == {}  # flush resets

    def test_stop_without_start_is_noop(self):
        timer = PhaseTimer()
        timer.stop()
        assert timer.flush() == {}


@pytest.mark.parametrize("engine", ["reference", "fast"])
class TestProfiler:
    def test_collects_rounds_and_totals(self, engine):
        profiler = Profiler()
        result = CongestedClique(4).run(
            prog,
            execution=ExecutionSpec(engine=engine, observer=profiler),
        )
        # Round 0 is the pre-round spawn phase; then one entry per round.
        assert [r for r, _ in profiler.rounds] == list(range(result.rounds + 1))
        assert "spawn" in profiler.rounds[0][1]
        assert {"deliver", "advance"} <= set(profiler.totals)
        assert profiler.total_seconds() == pytest.approx(
            sum(sum(s.values()) for _, s in profiler.rounds)
        )

    def test_phase_rows_ordered_by_cost(self, engine):
        profiler = Profiler()
        CongestedClique(4).run(
            prog,
            execution=ExecutionSpec(engine=engine, observer=profiler),
        )
        rows = profiler.phase_rows()
        seconds = [r["seconds"] for r in rows]
        assert seconds == sorted(seconds, reverse=True)
        assert all(r["share"].endswith("%") for r in rows)

    def test_resets_between_runs(self, engine):
        profiler = Profiler()
        CongestedClique(4).run(
            prog,
            execution=ExecutionSpec(engine=engine, observer=profiler),
        )
        first = list(profiler.rounds)
        CongestedClique(4).run(
            prog,
            execution=ExecutionSpec(engine=engine, observer=profiler),
        )
        assert len(profiler.rounds) == len(first)
