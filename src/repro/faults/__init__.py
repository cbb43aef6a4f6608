"""Deterministic fault injection and resilience for the clique simulator.

Three layers, each usable on its own:

* :class:`FaultPlan` (:mod:`repro.faults.plan`) — a pure, seed-keyed
  description of an unreliable network: drops, corruption, duplication,
  link failures, crashes, plus an adversarial tier of Byzantine sender
  behaviours (equivocation, forged identities, selective delivery,
  limited broadcast).  Every decision is a hash of
  ``(seed, round, src, dst)``, so faulty runs replay bit-identically.
* :class:`FaultInjector` (:mod:`repro.faults.inject`) — the per-run
  adapter engines consult at delivery time; surfaces every injected
  fault through the ``Observer`` protocol.
* :func:`resilient` (:mod:`repro.faults.resilience`) — wraps any node
  program with ack/retransmit windows so it tolerates drops, at honest
  simulated round and bit cost.

The ``fault_plan`` field of an ``execution=``
:class:`~repro.engine.spec.ExecutionSpec` (``run``, ``run_algorithm``,
``run_spec``, ``run_sweep``; ``repro sweep --fault-plan``) accepts a
plan instance or a spec string like ``"drop=0.2,seed=7"``.

Layering: this package sits between the clique substrate and the
engines — it imports :mod:`repro.clique` only, and the engines import
it; the observability layer knows faults only as events.
"""

from .inject import FaultInjector
from .plan import BYZANTINE_BEHAVIOURS, FaultPlan
from .resilience import HEADER_BITS, attempt_offsets, resilient

__all__ = [
    "BYZANTINE_BEHAVIOURS",
    "FaultInjector",
    "FaultPlan",
    "HEADER_BITS",
    "attempt_offsets",
    "resilient",
    "resolve_fault_plan",
]


def resolve_fault_plan(spec) -> FaultPlan | None:
    """Turn a ``fault_plan=`` argument into a :class:`FaultPlan` or ``None``.

    Accepts ``None`` (no faults), a plan instance, or a spec string for
    :meth:`FaultPlan.from_spec`.
    """
    from ..clique.errors import CliqueError

    if spec is None:
        return None
    if isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, str):
        return FaultPlan.from_spec(spec)
    raise CliqueError(
        f"fault_plan must be None, a FaultPlan or a spec string like "
        f"'drop=0.2,seed=7', got {spec!r}"
    )
