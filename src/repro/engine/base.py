"""Execution-engine abstractions.

The simulator separates *semantics* from *execution*: a
:class:`~repro.clique.network.CongestedClique` owns the model parameters
(``n``, bandwidth, round limit, model variant) while an :class:`Engine`
owns the mechanics of advancing the node generators and delivering
messages.  ``CongestedClique.run(..., execution=...)`` accepts an engine
name, an :class:`Engine` instance, or ``None`` (the reference backend),
or a whole :class:`~repro.engine.spec.ExecutionSpec`.

Every backend must be observationally equivalent to the reference
backend on valid programs — same ``RunResult.outputs``, same ``rounds``,
same bit accounting.  :mod:`repro.engine.diff` enforces this across the
algorithm catalog.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Generator, Sequence

from ..clique.errors import CliqueError
from ..clique.network import NodeProgram, RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..clique.network import CongestedClique
    from ..clique.node import Node

__all__ = [
    "CHECK_LEVELS",
    "ENGINES",
    "Engine",
    "canonical_check",
    "engine_names",
    "register_engine",
    "resolve_engine",
    "spawn_generators",
]

#: The one validation vocabulary, shared by every backend:
#: ``"full"`` reproduces every model check (addressing, duplicates,
#: empty payloads, bandwidth), and ``"bandwidth"`` keeps only the
#: per-link bit-budget enforcement the paper's cost model is built on.
#: No level turns the bit budget off.
CHECK_LEVELS = ("full", "bandwidth")

#: Registry of engine names to engine classes (see :func:`register_engine`).
ENGINES: dict[str, type["Engine"]] = {}


def canonical_check(spec: Any) -> str | None:
    """Validate a ``check=`` argument against :data:`CHECK_LEVELS`.

    ``None`` passes through (meaning "the engine's default").
    """
    if spec is None or spec in CHECK_LEVELS:
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


def spawn_generators(
    program: NodeProgram, nodes: Sequence["Node"]
) -> dict[int, Generator[None, None, Any]]:
    """Instantiate one generator per node, validating the program shape."""
    gens: dict[int, Generator[None, None, Any]] = {}
    for v, node in enumerate(nodes):
        gen = program(node)
        if not hasattr(gen, "send"):
            raise CliqueError(
                "node program must be a generator function "
                "(use 'yield' for round boundaries)"
            )
        gens[v] = gen
    return gens


class Engine(ABC):
    """One execution backend for congested clique node programs.

    Subclasses implement :meth:`execute`; the clique object passed in
    carries all model parameters.  Engines are cheap, stateless-between-
    runs objects, safe to reuse and to pickle (the sweep runner ships
    them to worker processes).
    """

    #: Registry key; subclasses override.
    name = "abstract"

    @abstractmethod
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
        """

    def describe(self) -> dict:
        """JSON-able engine configuration (used in cache keys and reports)."""
        return {"engine": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"
