"""The engine-to-observer event protocol.

An :class:`Observer` is the single integration point between an
execution backend and the observability layer: the engine calls the
observer's hooks while it runs, the observer turns those calls into
metrics (:mod:`repro.obs.metrics`), trace events (:mod:`repro.obs.trace`)
or phase profiles (:mod:`repro.obs.profile`).

Two capability flags keep the fast engine's hot path honest:

* ``wants_messages`` — the observer needs one callback *per delivered
  message* (:meth:`Observer.on_message`).  The fast engine only expands
  its batched outboxes into explicit per-message form when an attached
  observer asks for this; the default metrics collector does not.
* ``wants_timing`` — the observer wants per-round phase timings
  (:meth:`Observer.on_phases`); engines only touch the wall clock when
  an attached observer asks.

The ``observer`` field of a run's ``execution=`` spec has one spelling
per meaning: ``None`` (the default: a fresh
:class:`~repro.obs.metrics.MetricsCollector`, so every run carries
metrics), ``False`` (no observation at all), a spec dict in the form
:meth:`Observer.describe` emits (``{"observer": "metrics", "links":
bool, "profile": bool}`` for a configured collector, ``{"observer":
"off"}`` for none), or an :class:`Observer` instance (in-process
callers only: an instance neither serialises nor crosses into sweep
workers).  :func:`resolve_observer` implements that mapping and
:func:`describe_observer` renders it into cache-key material, so a dict
spec is its own key material.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..clique.errors import CliqueError, did_you_mean

__all__ = [
    "CompositeObserver",
    "Observer",
    "RoundStats",
    "describe_observer",
    "resolve_observer",
]


@dataclass
class RoundStats:
    """Aggregate delivery statistics for one completed round.

    ``sent_bits`` / ``received_bits`` are *this round's* per-node bit
    deltas (bulk included), not running totals.  ``broadcast_messages``
    counts expanded recipient-messages, so on the reference engine —
    which sees a broadcast only as ``n - 1`` queued unicasts — it is
    always zero and the messages land in ``unicast_messages`` instead;
    totals agree across backends.
    """

    round: int
    unicast_messages: int
    broadcast_messages: int
    bulk_messages: int
    message_bits: int
    bulk_bits: int
    sent_bits: Sequence[int]
    received_bits: Sequence[int]

    @property
    def messages(self) -> int:
        """Total messages delivered this round (bulk included)."""
        return self.unicast_messages + self.broadcast_messages + self.bulk_messages


class Observer:
    """Base observer: every hook is a no-op.

    Subclasses override the hooks they need and flip the capability
    flags they rely on.  Observers must tolerate being reused across
    sequential runs — :meth:`on_run_start` is the reset point.
    """

    #: The engine must report every delivered message via :meth:`on_message`.
    wants_messages = False
    #: The engine must time its phases and call :meth:`on_phases`.
    wants_timing = False
    #: The engine must report node halts via :meth:`on_halt`.
    wants_halts = False

    def on_run_start(self, *, n: int, bandwidth: int, engine: str) -> None:
        """A run begins on ``n`` nodes with per-link budget ``bandwidth``."""

    def on_round(self, stats: RoundStats) -> None:
        """Round ``stats.round`` finished delivering (before nodes advance)."""

    def on_message(
        self, *, round: int, src: int, dst: int, bits: int, kind: str
    ) -> None:
        """One message delivered (``kind`` is ``unicast``/``broadcast``/``bulk``).

        Only called when :attr:`wants_messages` is true.  In the
        synchronous model a send *is* its same-round delivery, so one
        event covers both sides.
        """

    def on_fault(self, *, round: int, src: int, dst: int, kind: str, bits: int) -> None:
        """One fault was injected into the message ``src -> dst``.

        ``kind`` is one of ``link_down`` / ``crash`` / ``drop`` /
        ``corrupt`` / ``duplicate`` (see :mod:`repro.faults`); ``bits``
        is the affected message's payload size.  Always called when a
        fault plan is active — fault accounting is part of the default
        metrics, so it does not hide behind :attr:`wants_messages`.
        """

    def on_halt(self, *, round: int, node: int) -> None:
        """``node`` returned (produced its output) after ``round`` rounds."""

    def on_phases(self, *, round: int, seconds: dict) -> None:
        """Wall-clock seconds per engine phase for one round.

        ``round`` 0 carries the pre-round ``spawn`` phase; rounds
        ``1..R`` carry ``deliver``/``advance`` (and ``validate`` where
        the engine separates it).  Only called when :attr:`wants_timing`
        is true.
        """

    def on_run_end(self, *, rounds: int, counters: tuple) -> None:
        """The run finished after ``rounds`` rounds with per-node counters.

        ``counters`` is handed over to the observer: engines pass a
        freshly-built tuple of dicts and never touch it again, so
        observers may retain it without copying.
        """

    def run_metrics(self):
        """The :class:`~repro.obs.metrics.RunMetrics` this observer
        collected, or ``None``.  Engines call this once, after
        :meth:`on_run_end`, to populate ``RunResult.metrics``."""
        return None

    def describe(self) -> dict:
        """JSON-able configuration (cache-key material)."""
        return {"observer": type(self).__name__}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class CompositeObserver(Observer):
    """Fan one engine's event stream out to several observers."""

    def __init__(self, *observers: Observer) -> None:
        self.observers = tuple(observers)
        self.wants_messages = any(o.wants_messages for o in self.observers)
        self.wants_timing = any(o.wants_timing for o in self.observers)
        self.wants_halts = any(o.wants_halts for o in self.observers)

    def on_run_start(self, **kw) -> None:
        for o in self.observers:
            o.on_run_start(**kw)

    def on_round(self, stats: RoundStats) -> None:
        for o in self.observers:
            o.on_round(stats)

    def on_message(self, **kw) -> None:
        for o in self.observers:
            if o.wants_messages:
                o.on_message(**kw)

    def on_fault(self, **kw) -> None:
        for o in self.observers:
            o.on_fault(**kw)

    def on_halt(self, **kw) -> None:
        for o in self.observers:
            o.on_halt(**kw)

    def on_phases(self, **kw) -> None:
        for o in self.observers:
            if o.wants_timing:
                o.on_phases(**kw)

    def on_run_end(self, **kw) -> None:
        for o in self.observers:
            o.on_run_end(**kw)

    def run_metrics(self):
        for o in self.observers:
            metrics = o.run_metrics()
            if metrics is not None:
                return metrics
        return None

    def describe(self) -> dict:
        return {
            "observer": "composite",
            "parts": [o.describe() for o in self.observers],
        }


#: The keys of an observer spec dict, by its ``"observer"`` kind.
_SPEC_KEYS = {"metrics": ("observer", "links", "profile"), "off": ("observer",)}


def resolve_observer(spec: Any) -> Observer | None:
    """Turn an ``observer=`` argument into an observer (or ``None``).

    ``None`` means the default metrics collector, ``False`` disables
    observation, a spec dict (see the module docstring) builds what it
    describes, and an :class:`Observer` instance passes through
    unchanged.  Anything else raises :class:`CliqueError`.
    """
    from .metrics import MetricsCollector

    if spec is None:
        return MetricsCollector()
    if spec is False:
        return None
    if isinstance(spec, Observer):
        return spec
    kind = spec.get("observer") if isinstance(spec, dict) else None
    keys = _SPEC_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        hint = did_you_mean(str(kind), list(_SPEC_KEYS)) if kind else ""
        raise CliqueError(
            f"observer must be None, False, an Observer instance or a spec "
            f"dict ({{'observer': 'metrics', 'links': bool, 'profile': "
            f"bool}} or {{'observer': 'off'}}), got {spec!r}{hint}"
        )
    for key in spec:
        if key not in keys:
            hint = did_you_mean(str(key), list(keys))
            raise CliqueError(
                f"unknown key {key!r} in observer spec {spec!r}; "
                f"known: {list(keys)}{hint}"
            )
    for key in keys[1:]:
        if key not in spec:
            raise CliqueError(f"observer spec {spec!r} is missing the {key!r} key")
        if not isinstance(spec[key], bool):
            raise CliqueError(f"observer spec {key!r} must be a bool, not {spec!r}")
    if kind == "off":
        return None
    return MetricsCollector(links=spec["links"], profile=spec["profile"])


def describe_observer(spec: Any) -> dict:
    """JSON-able description of an ``observer=`` spec (cache-key material).

    Runs that observe differently may produce different
    ``RunResult.metrics`` payloads, so the observer configuration is
    part of every run-cache key.  A spec dict and the instance it
    builds describe alike.
    """
    observer = resolve_observer(spec)
    if observer is None:
        return {"observer": "off"}
    return observer.describe()
