"""How a run executes: :class:`ExecutionSpec`, the one spelling of it.

A run is defined by its model alone (``n`` nodes, ``B``-bit links,
synchronous rounds; see :class:`~repro.clique.network.CongestedClique`).
*How* the simulator executes it (backend, check level, observer, fault
plan, transcript recording) is one value, an :class:`ExecutionSpec`,
and every entry point takes it as ``execution=``:

* ``CongestedClique.run`` / ``run_algorithm`` / ``run_spec`` /
  ``run_sweep``;
* ``ServiceClient.run`` / ``ServiceClient.sweep``, which serialise it
  with :meth:`ExecutionSpec.to_dict`; the daemon rebuilds it with
  :meth:`ExecutionSpec.from_dict`;
* bench workloads, whose params carry an ``"execution"`` dict.

``execution=`` accepts a spec, its dict form, an engine name or an
:class:`~repro.engine.base.Engine` instance (:meth:`ExecutionSpec.coerce`).
:func:`resolve_execution` resolves its engine and fault plan, and
:meth:`ExecutionSpec.describe` renders the run-cache key material.

An unset engine means the reference engine for single runs (resolved in
:func:`~repro.engine.base.resolve_engine`).  Batch entry points (sweeps,
the daemon, ``repro sweep/stats/trace``) fill it with
:data:`BATCH_ENGINE` through :func:`batch_execution` instead.  The
choice of engine never changes outputs, rounds or bits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

from ..clique.errors import CliqueError
from .base import Engine, canonical_check, resolve_engine

__all__ = [
    "BATCH_ENGINE",
    "ExecutionSpec",
    "batch_execution",
    "resolve_execution",
]

#: The engine batch entry points run on when the execution names none.
#: Single runs keep the reference engine instead: ``fast`` refuses
#: broadcast-only and CONGEST cliques and checks only bandwidth by
#: default, while the reference engine runs every model check.
BATCH_ENGINE = "fast"


@dataclass(frozen=True)
class ExecutionSpec:
    """How a run executes: backend + check + observer + fault plan.

    Every field defaults to ``None`` meaning "unset" (the entry point's
    default applies): ``engine=None`` resolves to the reference backend
    (to :data:`BATCH_ENGINE` on batch entry points), ``observer=None``
    to the default metrics collector, ``check=None`` to the engine's own
    default level.

    ``engine`` is a registry name or an :class:`~repro.engine.base.Engine`
    instance; ``observer`` an observer *spec* (``False`` or a dict such
    as ``{"observer": "metrics", "links": True, "profile": False}``; see
    :mod:`repro.obs.observer`) or instance; ``fault_plan`` a spec string
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
                f"observer spec (None, False or an {{'observer': "
                f"'metrics', 'links': bool, 'profile': bool}} dict) instead"
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
        """Canonical JSON description: the run-cache key material."""
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

    def merged(self, **settings: Any) -> "ExecutionSpec":
        """Fill unset fields from ``settings``.

        A field set in exactly one place wins; set in both places it
        must agree (``==``) or a :class:`CliqueError` is raised, so a
        setting can fill a gap in the spec but never silently override
        it.
        """
        updates: dict = {}
        for name, value in settings.items():
            if name == "check":
                value = canonical_check(value)
            if value is None:
                continue
            current = getattr(self, name)
            if current is None:
                updates[name] = value
            elif _differs(current, value):
                raise CliqueError(
                    f"conflicting execution settings: {name}={current!r} "
                    f"from the ExecutionSpec vs {name}={value!r}"
                )
        return replace(self, **updates) if updates else self


def _differs(a: Any, b: Any) -> bool:
    try:
        return bool(a != b)
    except Exception:  # pragma: no cover - exotic __eq__
        return a is not b


def batch_execution(execution: Any = None) -> ExecutionSpec:
    """Coerce ``execution`` and fill an unset engine with
    :data:`BATCH_ENGINE` (the default of sweeps, the daemon and
    ``repro sweep/stats/trace``)."""
    spec = ExecutionSpec.coerce(execution)
    if spec.engine is None:
        spec = replace(spec, engine=BATCH_ENGINE)
    return spec


def resolve_execution(execution: Any = None) -> ExecutionSpec:
    """The one resolution point for "how does this run execute".

    Coerces ``execution`` (spec, dict, engine name/instance or ``None``)
    and returns the spec with its engine resolved through the registry
    to an :class:`~repro.engine.base.Engine` instance (an unset engine
    is the reference engine) and its fault plan parsed.
    """
    from ..faults import resolve_fault_plan

    spec = ExecutionSpec.coerce(execution)
    return replace(
        spec,
        engine=resolve_engine(spec.engine, check=spec.check),
        fault_plan=resolve_fault_plan(spec.fault_plan),
    )
