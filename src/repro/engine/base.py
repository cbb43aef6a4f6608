"""Execution-engine abstractions and the one round loop.

The simulator separates *semantics* from *execution*: a
:class:`~repro.clique.network.CongestedClique` owns the model parameters
(``n``, bandwidth, round limit, model variant) while an :class:`Engine`
owns the mechanics of advancing the node programs and delivering
messages.  ``CongestedClique.run(..., execution=...)`` accepts an engine
name, an :class:`Engine` instance, or ``None`` (the reference backend),
or a whole :class:`~repro.engine.spec.ExecutionSpec`.

:meth:`Engine.execute` is the one synchronous-round loop every backend
runs: it sets up the observer, the fault plan and the phase timer,
applies the termination rule (no live program and nothing queued) and
the round limit, counts rounds and bits, reports each round and its
phase timings, and assembles transcripts, counters and the
:class:`~repro.clique.network.RunResult`.  A backend supplies only the
per-run state the loop drives (:meth:`Engine._start`): how programs
advance, how queued traffic is validated and delivered.
:class:`NodeStepper` is the one per-node generator stepper, shared by
the reference and fast engines and by
:func:`~repro.engine.columnar.adapt_generator`.

Every backend must be observationally equivalent to the reference
backend on valid programs — same ``RunResult.outputs``, same ``rounds``,
same bit accounting.  :mod:`repro.engine.diff` enforces this across the
algorithm catalog.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..clique.errors import CliqueError, RoundLimitExceeded
from ..clique.network import NodeProgram, RunResult
from ..clique.transcript import RoundRecord, Transcript
from ..faults import FaultInjector, resolve_fault_plan
from ..obs import resolve_observer
from ..obs.profile import PhaseTimer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..clique.network import CongestedClique
    from ..clique.node import Node

__all__ = [
    "CHECK_LEVELS",
    "ENGINES",
    "Engine",
    "NodeStepper",
    "canonical_check",
    "engine_names",
    "register_engine",
    "resolve_engine",
]

#: The one validation vocabulary, shared by every backend:
#: ``"full"`` reproduces every model check (addressing, duplicates,
#: empty payloads, bandwidth), and ``"bandwidth"`` keeps only the
#: per-link bit-budget enforcement the paper's cost model is built on.
#: No level turns the bit budget off.
CHECK_LEVELS = ("full", "bandwidth")

#: Registry of engine names to engine classes (see :func:`register_engine`).
ENGINES: dict[str, type["Engine"]] = {}


def canonical_check(spec: Any, default: str | None = None) -> str | None:
    """Validate a ``check=`` argument against :data:`CHECK_LEVELS`.

    ``None`` means ``default``: an engine passes its own level, and
    callers that leave the choice to the engine keep ``None``.
    """
    if spec is None:
        return default
    if spec in CHECK_LEVELS:
        return spec
    raise CliqueError(f"check must be one of {CHECK_LEVELS}, got {spec!r}")


def engine_names() -> list[str]:
    """Sorted names of every registered backend.

    This is the single source of truth for user-facing engine choices
    (``repro run/sweep/stats/trace --engine``): a backend registered via
    :func:`register_engine` appears here without any CLI change.
    """
    return sorted(ENGINES)


def register_engine(cls: type["Engine"]) -> type["Engine"]:
    """Class decorator: register an engine class under its ``name``."""
    if not cls.name or cls.name in ENGINES:
        raise CliqueError(f"engine name {cls.name!r} is empty or already taken")
    ENGINES[cls.name] = cls
    return cls


def resolve_engine(spec: "str | Engine | None", check: Any = None) -> "Engine":
    """Turn an ``engine=`` argument into an :class:`Engine` instance.

    ``None`` means the reference backend; a string is looked up in
    :data:`ENGINES` and instantiated; an :class:`Engine` instance passes
    through unchanged.  ``check`` (one of :data:`CHECK_LEVELS`) selects
    the validation level for name/``None`` specs; combining it with an
    engine *instance* whose configured level differs is a conflict and
    raises :class:`~repro.clique.errors.CliqueError`.
    """
    check = canonical_check(check)
    if spec is None:
        spec = "reference"
    if isinstance(spec, Engine):
        if check is not None and getattr(spec, "check", check) != check:
            raise CliqueError(
                f"conflicting validation levels: engine {spec!r} is "
                f"configured with check={spec.check!r} but the run asked "
                f"for check={check!r}"
            )
        return spec
    if isinstance(spec, str):
        try:
            cls = ENGINES[spec]
        except KeyError:
            from ..clique.errors import did_you_mean

            known = engine_names()
            hint = did_you_mean(spec, known)
            raise CliqueError(
                f"unknown engine {spec!r}; known engines: {known}{hint}"
            ) from None
        return cls() if check is None else cls(check=check)
    raise CliqueError(
        f"engine must be a name, an Engine instance or None, got {spec!r}"
    )


class NodeStepper:
    """One generator per node, stepped in lockstep.

    Spawns ``program(node)`` for every node, advances the live ones in
    id order, records each return as that node's output (calling
    ``on_halt(round=, node=)`` if given) and hands every node its inbox
    for the next round.  ``live`` is the set of nodes still running.
    """

    def __init__(
        self,
        program: NodeProgram,
        nodes: Sequence["Node"],
        on_halt: Callable[..., None] | None = None,
    ) -> None:
        self.nodes = nodes
        self.gens = []
        for node in nodes:
            gen = program(node)
            if not hasattr(gen, "send"):
                raise CliqueError(
                    "node program must be a generator function "
                    "(use 'yield' for round boundaries)"
                )
            self.gens.append(gen)
        self.outputs: dict[int, Any] = {}
        self.live = set(range(len(nodes)))
        self.on_halt = on_halt

    def advance(self, round: int) -> None:
        """Run every live node to its next ``yield`` or its return."""
        for v in sorted(self.live):
            try:
                next(self.gens[v])
            except StopIteration as stop:
                self.outputs[v] = stop.value
                self.nodes[v]._halted = True
                self.live.discard(v)
                if self.on_halt is not None:
                    self.on_halt(round=round, node=v)

    def hand_off(
        self,
        round: int,
        inboxes: Sequence[dict],
        sent: Sequence[dict] | None = None,
    ) -> list[RoundRecord] | None:
        """Give every node its inbox of ``round``; given the per-node
        ``{dst: payload}`` sent this round, return the round's records."""
        for node, inbox in zip(self.nodes, inboxes):
            node._inbox = inbox
            node._round = round
        if sent is None:
            return None
        return [
            RoundRecord(sent=out, received=dict(inbox))
            for out, inbox in zip(sent, inboxes)
        ]

    def finish(self) -> tuple[dict[int, Any], tuple[dict, ...]]:
        """The run's outputs and per-node counters."""
        return self.outputs, tuple(dict(node.counters) for node in self.nodes)


class Engine(ABC):
    """One execution backend for congested clique node programs.

    :meth:`execute` is the shared round loop; a subclass supplies the
    per-run state it drives through :meth:`_start` and may refuse a
    model variant or program in :meth:`_admit`, before anything else of
    the run is resolved.  Engines are cheap, stateless-between-runs
    objects, safe to reuse and to pickle (the sweep runner ships them to
    worker processes).
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def _admit(self, clique: "CongestedClique", program: Any) -> None:
        """Raise if this engine cannot run ``program`` on ``clique``."""

    @abstractmethod
    def _start(
        self,
        clique: "CongestedClique",
        program: Any,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
        *,
        injector: FaultInjector | None,
        obs: Any,
        record: bool,
        on_halt: Callable[..., None] | None,
    ) -> Any:
        """Spawn one run's programs and return the state :meth:`execute`
        drives.

        ``obs`` is the per-message observer (or ``None``), ``record``
        whether to return per-round transcript records, and ``on_halt``
        the halt callback (or ``None``).  The state provides:

        * ``live`` — truthy while a program has not returned;
        * ``pending()`` — whether traffic is queued;
        * ``validate`` — ``None``, or a callable run before each
          delivery as its own ``validate`` phase;
        * ``advance(round)`` — run the live programs to their next
          round boundary;
        * ``deliver(round)`` — validate, deliver and account the queued
          traffic as round ``round``, hand the inboxes over, and return
          ``(RoundStats, records)`` with one
          :class:`~repro.clique.transcript.RoundRecord` per node when
          recording, else ``None``.  The per-node bit vectors are lists
          or int64 arrays; observers always receive lists;
        * ``finish()`` — ``(outputs, counters)``.
        """

    def execute(
        self,
        clique: "CongestedClique",
        program: NodeProgram,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
        *,
        observer: Any = None,
        transcripts: bool | None = None,
        fault_plan: Any = None,
    ) -> RunResult:
        """Run ``program`` on all nodes of ``clique`` and return the result.

        ``inputs`` and ``auxes`` are already resolved to one value per
        node (see ``repro.clique.network._resolve_per_node``).

        ``observer`` follows :func:`repro.obs.resolve_observer` semantics
        (``None`` attaches the default metrics collector, ``False``
        disables observation, a spec dict configures the collector);
        ``transcripts`` overrides the
        clique's ``record_transcripts`` setting when not ``None``.

        ``fault_plan`` follows :func:`repro.faults.resolve_fault_plan`
        semantics (``None``, a :class:`~repro.faults.FaultPlan`, or a
        spec string); when given, the engine consults the plan at
        delivery time for every bandwidth-checked message and reports
        injected faults through the observer.  The privileged bulk
        channel is exempt.

        A round is: check the round limit, validate, deliver, report
        the round, advance the live programs.  The run ends when no
        program is live and nothing is queued, so a node that sends and
        then returns still has its messages delivered.
        """
        self._admit(clique, program)
        n = clique.n
        obs = resolve_observer(observer)
        plan = resolve_fault_plan(fault_plan)
        injector = FaultInjector(plan, n, obs) if plan is not None else None
        record = transcripts if transcripts is not None else clique.record_transcripts
        timer = PhaseTimer() if obs is not None and obs.wants_timing else None
        if timer is not None:
            timer.start("spawn")
        state = self._start(
            clique,
            program,
            inputs,
            auxes,
            injector=injector,
            obs=obs if obs is not None and obs.wants_messages else None,
            record=record,
            on_halt=obs.on_halt if obs is not None and obs.wants_halts else None,
        )
        if obs is not None:
            obs.on_run_start(n=n, bandwidth=clique.bandwidth, engine=self.name)

        # Initial local-computation phase (before the first round).
        if timer is not None:
            timer.start("advance")
        state.advance(0)
        if timer is not None:
            obs.on_phases(round=0, seconds=timer.flush())

        rounds = 0
        total_bits = 0
        bulk_bits = 0
        sent_log: list[Sequence[int]] = []
        received_log: list[Sequence[int]] = []
        records = [[] for _ in range(n)] if record else None
        validate = state.validate
        while state.live or state.pending():
            if rounds >= clique.max_rounds:
                raise RoundLimitExceeded(clique.max_rounds)
            rounds += 1
            if validate is not None:
                if timer is not None:
                    timer.start("validate")
                validate()
            if timer is not None:
                timer.start("deliver")
            stats, round_records = state.deliver(rounds)
            total_bits += stats.message_bits
            bulk_bits += stats.bulk_bits
            _keep_row(sent_log, stats.sent_bits)
            _keep_row(received_log, stats.received_bits)
            if records is not None:
                for history, entry in zip(records, round_records):
                    history.append(entry)
            if obs is not None:
                if not isinstance(stats.sent_bits, list):
                    # Observers get lists; int64 columns convert here.
                    stats = replace(
                        stats,
                        sent_bits=stats.sent_bits.tolist(),
                        received_bits=stats.received_bits.tolist(),
                    )
                obs.on_round(stats)
            if state.live:
                if timer is not None:
                    timer.start("advance")
                state.advance(rounds)
            if timer is not None:
                obs.on_phases(round=rounds, seconds=timer.flush())

        outputs, counters = state.finish()
        out_transcripts = None
        if records is not None:
            out_transcripts = tuple(
                Transcript(node=v, n=n, rounds=tuple(history))
                for v, history in enumerate(records)
            )
        metrics = None
        if obs is not None:
            obs.on_run_end(rounds=rounds, counters=counters)
            metrics = obs.run_metrics()
        return RunResult(
            outputs=outputs,
            rounds=rounds,
            total_message_bits=total_bits,
            bulk_bits=bulk_bits,
            sent_bits=_column_sums(sent_log, n),
            received_bits=_column_sums(received_log, n),
            counters=counters,
            transcripts=out_transcripts,
            metrics=metrics,
        )

    def describe(self) -> dict:
        """JSON-able engine configuration (used in cache keys and reports)."""
        return {"engine": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


def _keep_row(rows: list[Sequence[int]], row: Sequence[int]) -> None:
    """Keep one round's per-node bits: a list of Python ints is kept as
    is (observers hold it anyway), an int64 column is folded at once into
    the one running column."""
    if rows and not isinstance(row, list):
        rows[0] = rows[0] + row
    else:
        rows.append(row)


def _column_sums(rows: list[Sequence[int]], n: int) -> tuple[int, ...]:
    """Per-node totals of the rows :func:`_keep_row` kept."""
    if not rows:
        return (0,) * n
    if isinstance(rows[0], list):
        return tuple(map(sum, zip(*rows)))
    return tuple(rows[0].tolist())
