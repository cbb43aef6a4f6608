"""The unified execution specification.

Historically every entry point grew its own engine plumbing:
``CongestedClique.run`` took ``engine=``/``check=``/``observer=``/
``fault_plan=`` keywords, ``run_sweep`` took the same names with
slightly different semantics, the ``repro serve`` request schema carried
flat ``engine``/``observer``/``fault_plan`` keys, and the bench workload
registry mapped its own engine strings.  :class:`ExecutionSpec` is the
one value object that captures *how* a run executes — backend, check
level, observer, fault plan, transcript recording — and
:func:`resolve_execution` is the single place it is resolved (the
successor of the bare :func:`repro.engine.base.resolve_engine`).

All four entry points accept an ``execution=`` argument:

* ``CongestedClique.run(program, g, execution=ExecutionSpec(engine="columnar"))``
* ``run_spec(spec, execution=...)`` / ``run_sweep(..., execution=...)``
* ``ServiceClient.run(..., execution=...)`` — serialised with
  :meth:`ExecutionSpec.to_dict` into the JSON protocol and rebuilt
  server-side with :meth:`ExecutionSpec.from_dict`
* bench workload params carry an ``"execution"`` dict

Legacy per-field keywords keep working; a field given both ways must
agree or the resolver raises, so a spec can never be silently
overridden.  :meth:`ExecutionSpec.describe` renders the canonical
cache-key material (engine / observer / fault-plan descriptions) that
:class:`~repro.engine.cache.RunCache` keys are built from — one spec,
one key, no matter which entry point produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

from ..clique.errors import CliqueError
from .base import Engine, canonical_check, resolve_engine

__all__ = ["ExecutionSpec", "ResolvedExecution", "resolve_execution"]


_UNSET = object()


@dataclass(frozen=True)
class ExecutionSpec:
    """How a run executes: backend + check + observer + fault plan.

    Every field defaults to ``None`` meaning "unset" (the entry point's
    default applies): ``engine=None`` resolves to the reference backend,
    ``observer=None`` to the default metrics collector, ``check=None``
    to the engine's own default level.

    ``engine`` is a registry name or an :class:`~repro.engine.base.Engine`
    instance; ``observer`` an observer *spec* (``True``/``False``/
    ``"metrics"``/``"off"``) or instance; ``fault_plan`` a spec string
    like ``"drop=0.2,seed=7"`` or a :class:`~repro.faults.FaultPlan`;
    ``transcripts`` overrides the clique's transcript recording.
    """

    engine: Any = None
    check: str | None = None
    observer: Any = None
    fault_plan: Any = None
    transcripts: bool | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "check", canonical_check(self.check))

    # -- construction ----------------------------------------------------

    @classmethod
    def coerce(cls, value: Any) -> "ExecutionSpec":
        """Normalise an ``execution=`` argument into a spec.

        Accepts an :class:`ExecutionSpec` (returned unchanged), a dict
        (:meth:`from_dict`), an engine name or :class:`Engine` instance
        (shorthand for ``ExecutionSpec(engine=...)``), or ``None`` (the
        empty spec).
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, (str, Engine)):
            return cls(engine=value)
        raise CliqueError(
            f"execution must be an ExecutionSpec, a dict, an engine name, "
            f"an Engine instance or None, got {value!r}"
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionSpec":
        """Rebuild a spec from its :meth:`to_dict` JSON form."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise CliqueError(
                f"unknown ExecutionSpec field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = dict(data)
        plan = kwargs.get("fault_plan")
        if isinstance(plan, dict):
            from ..faults import FaultPlan

            kwargs["fault_plan"] = FaultPlan.from_dict(plan)
        return cls(**kwargs)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form for the service protocol (round-trips through
        :meth:`from_dict`).

        Only *specs* serialise: an :class:`Engine` or ``Observer``
        instance has no faithful JSON form, so passing one raises —
        spell the engine as ``engine="name", check=...`` instead.  A
        :class:`~repro.faults.FaultPlan` serialises to its field dict.
        Unset fields are omitted.
        """
        from ..faults import FaultPlan
        from ..obs import Observer

        if isinstance(self.engine, Engine):
            raise CliqueError(
                f"ExecutionSpec with an Engine instance ({self.engine!r}) "
                f"cannot be serialised; use engine={self.engine.name!r} "
                f"plus check= instead"
            )
        if isinstance(self.observer, Observer):
            raise CliqueError(
                f"ExecutionSpec with an Observer instance "
                f"({self.observer!r}) cannot be serialised; use an "
                f"observer spec (True/False/'metrics'/'off') instead"
            )
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, FaultPlan):
                value = {
                    pf.name: getattr(value, pf.name) for pf in fields(value)
                }
            out[f.name] = value
        return out

    def describe(self) -> dict:
        """Canonical JSON description — the run-cache key material.

        The three components match what :func:`run_sweep` has always fed
        into :meth:`RunCache.key_for` (engine description, observer
        description, fault-plan description), so ExecutionSpec-keyed
        lookups hit entries warmed through any legacy path.
        """
        from ..faults import resolve_fault_plan
        from ..obs import describe_observer

        plan = resolve_fault_plan(self.fault_plan)
        engine = resolve_engine(self.engine, check=self.check)
        return {
            "engine": engine.describe(),
            "observer": describe_observer(self.observer),
            "fault_plan": plan.describe() if plan is not None else None,
        }

    # -- merging ---------------------------------------------------------

    def merged(
        self,
        *,
        engine: Any = None,
        check: Any = None,
        observer: Any = None,
        fault_plan: Any = None,
        transcripts: bool | None = None,
    ) -> "ExecutionSpec":
        """Overlay legacy per-field keywords onto this spec.

        A field set in exactly one place wins; set in both places it
        must agree (``==``) or a :class:`CliqueError` is raised — an
        explicit keyword can fill a gap in the spec but never silently
        override it.
        """
        updates: dict = {}
        for name, value in (
            ("engine", engine),
            ("check", canonical_check(check)),
            ("observer", observer),
            ("fault_plan", fault_plan),
            ("transcripts", transcripts),
        ):
            if value is None:
                continue
            current = getattr(self, name)
            if current is None:
                updates[name] = value
            elif _differs(current, value):
                raise CliqueError(
                    f"conflicting execution settings: {name}={current!r} "
                    f"from the ExecutionSpec vs {name}={value!r} from the "
                    f"keyword argument"
                )
        return replace(self, **updates) if updates else self


def _differs(a: Any, b: Any) -> bool:
    try:
        return bool(a != b)
    except Exception:  # pragma: no cover - exotic __eq__
        return a is not b


@dataclass
class ResolvedExecution:
    """An :class:`ExecutionSpec` after resolution.

    ``engine`` is a ready :class:`~repro.engine.base.Engine` instance;
    the remaining fields stay in spec form (engines resolve observers
    and fault plans themselves, per run), and ``spec`` is the merged
    normalised spec for cache keys and reporting.
    """

    engine: Engine
    observer: Any
    fault_plan: Any
    transcripts: bool | None
    spec: ExecutionSpec


def resolve_execution(
    execution: Any = None,
    *,
    engine: Any = None,
    check: Any = None,
    observer: Any = None,
    fault_plan: Any = None,
    transcripts: bool | None = None,
) -> ResolvedExecution:
    """The one resolution point for "how does this run execute".

    Coerces ``execution`` (spec, dict, engine name/instance or ``None``),
    overlays the legacy keywords (conflicts raise), resolves the engine
    through the registry and returns the bundle every entry point hands
    to ``Engine.execute``.
    """
    spec = ExecutionSpec.coerce(execution).merged(
        engine=engine,
        check=check,
        observer=observer,
        fault_plan=fault_plan,
        transcripts=transcripts,
    )
    return ResolvedExecution(
        engine=resolve_engine(spec.engine, check=spec.check),
        observer=spec.observer,
        fault_plan=spec.fault_plan,
        transcripts=spec.transcripts,
        spec=spec,
    )
