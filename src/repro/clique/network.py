"""The synchronous round model and its execution entry point.

A :class:`CongestedClique` owns the model parameters (``n``, bandwidth,
round limit, model variant) and delegates execution to a pluggable
backend from :mod:`repro.engine`:

1. every live node's generator runs until its next ``yield`` (queueing
   messages via :meth:`Node.send`) or until it returns (halts with an
   output),
2. the engine validates queued messages against the model's rules
   (one message of at most ``B`` bits per ordered pair per round;
   validation depth depends on the backend),
3. messages are delivered into the recipients' inboxes and the round
   counter increments.

The *time complexity* reported is exactly the number of communication
rounds, matching the paper's Section 3 cost model.  Local computation is
unlimited and free, as in the paper.  The default backend is the
always-validating reference engine; ``run(..., execution="fast")``
selects the batched performance backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Generator, Mapping, Sequence

from .errors import CliqueError
from .graph import CliqueGraph
from .node import Node
from .transcript import Transcript

__all__ = ["CongestedClique", "RunResult", "default_bandwidth", "NodeProgram"]

#: A node program: a generator function taking the node-local API.
NodeProgram = Callable[[Node], Generator[None, None, Any]]


def default_bandwidth(n: int, multiplier: int = 1) -> int:
    """The per-link, per-round bit budget ``B = multiplier * ceil(log2 n)``.

    Per Section 3 of the paper, constants hidden in the O(log n) bandwidth
    can be moved into the running time, so the canonical budget is exactly
    ``ceil(log2 n)`` bits (with a floor of 1 bit for tiny cliques).
    """
    if n < 1:
        raise CliqueError(f"need at least one node, got n={n}")
    if multiplier < 1:
        raise CliqueError(f"bandwidth multiplier must be >= 1, got {multiplier}")
    return multiplier * max(1, math.ceil(math.log2(n)) if n > 1 else 1)


_numpy_module = None


def _numpy():
    """Lazily import numpy exactly once (module-level memoisation).

    Output comparison is the only numpy dependency of this module; the
    lazy helper keeps pure-BitString runs import-light while avoiding
    repeated ``import numpy`` statements inside hot comparison paths.
    """
    global _numpy_module
    if _numpy_module is None:
        import numpy

        _numpy_module = numpy
    return _numpy_module


def _outputs_equal(a: Any, b: Any) -> bool:
    """Equality that tolerates numpy arrays and containers thereof."""
    np = _numpy()
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(
            _outputs_equal(x, y) for x, y in zip(a, b)
        )
    result = a == b
    if isinstance(result, bool):
        return result
    try:
        return bool(result)
    except (ValueError, TypeError):
        return bool(np.asarray(result).all())


@dataclass(frozen=True)
class RunResult:
    """Outcome of one algorithm execution.

    This is a **stable** dataclass: its field set is frozen by
    ``tests/test_public_api.py`` and round-trips through
    :meth:`to_dict`/:meth:`from_dict` (the representation ``run_sweep``
    workers and the run cache rely on).  New fields may be appended with
    defaults; existing fields must not be renamed or removed.
    """

    #: Per-node outputs (the generators' return values).
    outputs: dict[int, Any]
    #: Number of communication rounds used.
    rounds: int
    #: Total bits carried by bandwidth-checked messages.
    total_message_bits: int
    #: Total bits carried by the privileged cost-model router channel.
    bulk_bits: int
    #: Per-node sent/received bit totals (bulk included) — the load
    #: profile Lenzen-style round accounting is based on.
    sent_bits: tuple[int, ...] = ()
    received_bits: tuple[int, ...] = ()
    #: Per-node measurement counters (see :meth:`Node.count`).
    counters: tuple[dict, ...] = ()
    #: Per-node transcripts, if recording was enabled.
    transcripts: tuple[Transcript, ...] | None = None
    #: The :class:`repro.obs.RunMetrics` collected by the run's observer
    #: (``None`` when the run was executed with ``observer=False``).
    metrics: Any = None

    def to_dict(self) -> dict:
        """Plain-dict representation (inverse of :meth:`from_dict`).

        Transcripts are serialised to their bit-exact string encoding
        and metrics via ``RunMetrics.to_dict``; outputs pass through
        unchanged (the round-trip is exact for any output type, but the
        dict is only JSON-ready when the outputs themselves are).
        """
        return {
            "outputs": [[v, out] for v, out in sorted(self.outputs.items())],
            "rounds": self.rounds,
            "total_message_bits": self.total_message_bits,
            "bulk_bits": self.bulk_bits,
            "sent_bits": list(self.sent_bits),
            "received_bits": list(self.received_bits),
            "counters": [dict(c) for c in self.counters],
            "transcripts": (
                None
                if self.transcripts is None
                else [
                    {"node": t.node, "n": t.n, "bits": t.encode().to_str()}
                    for t in self.transcripts
                ]
            ),
            "metrics": (
                None if self.metrics is None else self.metrics.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a :class:`RunResult` from :meth:`to_dict` output."""
        from .bits import BitString

        transcripts = data.get("transcripts")
        metrics = data.get("metrics")
        if metrics is not None and not hasattr(metrics, "max_counter"):
            from ..obs.metrics import RunMetrics

            metrics = RunMetrics.from_dict(metrics)
        return cls(
            outputs={int(v): out for v, out in data["outputs"]},
            rounds=data["rounds"],
            total_message_bits=data["total_message_bits"],
            bulk_bits=data["bulk_bits"],
            sent_bits=tuple(data.get("sent_bits", ())),
            received_bits=tuple(data.get("received_bits", ())),
            counters=tuple(dict(c) for c in data.get("counters", ())),
            transcripts=(
                None
                if transcripts is None
                else tuple(
                    Transcript.decode(
                        t["node"], t["n"], BitString.from_str(t["bits"])
                    )
                    for t in transcripts
                )
            ),
            metrics=metrics,
        )

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The stable field set (frozen by the public-API tests)."""
        return tuple(f.name for f in fields(cls))

    def max_counter(self, key: str) -> int:
        """``max_v counters[v][key]`` (0 when never counted)."""
        return max(
            (c.get(key, 0) for c in self.counters), default=0
        )

    @property
    def resilience(self) -> dict[str, int]:
        """Whole-run resilience-layer counters, summed over nodes.

        The :func:`repro.faults.resilient` wrapper maintains per-node
        ``resilient_*`` counters (retransmits, unacked frames);
        this rolls them up as ``{"retransmits": ..., "unacked": ...}``
        without the prefix.  Empty for unwrapped programs.
        """
        totals: dict[str, int] = {}
        for per_node in self.counters:
            for key, amount in per_node.items():
                if key.startswith("resilient_"):
                    short = key[len("resilient_"):]
                    totals[short] = totals.get(short, 0) + amount
        return totals

    def max_node_load(self) -> int:
        """``max_v max(sent_v, received_v)`` in bits — the quantity the
        routing bounds are stated in."""
        if not self.sent_bits:
            return 0
        return max(
            max(s, r) for s, r in zip(self.sent_bits, self.received_bits)
        )

    def common_output(self) -> Any:
        """The single output all nodes agree on (decision problems).

        Raises if the nodes disagree — decision algorithms in the paper
        require every node to produce the same verdict.
        """
        it = iter(self.outputs.values())
        try:
            first = next(it)
        except StopIteration:
            raise CliqueError("no outputs recorded") from None
        for value in it:
            if not _outputs_equal(value, first):
                raise CliqueError(f"nodes disagree on output: {self.outputs}")
        return first


def _resolve_per_node(spec: Any, n: int) -> list[Any]:
    """Expand an input spec into one value per node.

    Accepts a :class:`CliqueGraph` (each node gets its local view), a
    callable ``v -> value``, a sequence of length ``n``, a mapping, or a
    single value shared by all nodes.
    """
    if isinstance(spec, CliqueGraph):
        if spec.n != n:
            raise CliqueError(f"graph has {spec.n} nodes, engine has {n}")
        return [spec.local_view(v) for v in range(n)]
    if callable(spec):
        return [spec(v) for v in range(n)]
    if isinstance(spec, Mapping):
        return [spec.get(v) for v in range(n)]
    if isinstance(spec, Sequence) and not isinstance(spec, (str, bytes)):
        if len(spec) != n:
            raise CliqueError(f"per-node sequence has length {len(spec)}, need {n}")
        return list(spec)
    return [spec] * n


class CongestedClique:
    """A congested clique of ``n`` nodes.

    Parameters
    ----------
    n:
        Number of nodes.
    bandwidth:
        Per-link bit budget per round; defaults to ``ceil(log2 n)``.
    bandwidth_multiplier:
        Convenience multiplier applied to the default budget (ignored when
        ``bandwidth`` is given explicitly).
    record_transcripts:
        If ``True``, record per-node communication transcripts (needed by
        the Theorem 3 normal-form machinery).
    max_rounds:
        Safety limit; :class:`RoundLimitExceeded` is raised beyond it.
    broadcast_only:
        If ``True``, run the *broadcast congested clique* (the variant
        the paper's related work cites for communication-complexity
        lower bounds [19]): each round a node must send the *same*
        message to every other node, or nothing.  Unicast sends raise
        :class:`ProtocolViolation` at delivery time.
    topology:
        If given (a :class:`CliqueGraph`), run the general **CONGEST**
        model instead of the clique: messages may only travel along the
        topology's edges.  The congested clique is exactly
        ``topology=None`` (Section 3: "a specialisation of the standard
        CONGEST model to a fully connected network topology"); the
        restricted variant exists so the bottleneck behaviour the
        paper's related work discusses can be demonstrated.
    """

    def __init__(
        self,
        n: int,
        *,
        bandwidth: int | None = None,
        bandwidth_multiplier: int = 1,
        record_transcripts: bool = False,
        max_rounds: int | None = None,
        broadcast_only: bool = False,
        topology: "CliqueGraph | None" = None,
    ) -> None:
        if n < 1:
            raise CliqueError(f"need at least one node, got n={n}")
        self.n = n
        self.bandwidth = (
            bandwidth
            if bandwidth is not None
            else default_bandwidth(n, bandwidth_multiplier)
        )
        if self.bandwidth < 1:
            raise CliqueError(f"bandwidth must be >= 1 bit, got {self.bandwidth}")
        self.record_transcripts = record_transcripts
        self.max_rounds = (
            max_rounds if max_rounds is not None else max(1024, 16 * n * n)
        )
        self.broadcast_only = broadcast_only
        if topology is not None and topology.n != n:
            raise CliqueError(
                f"topology has {topology.n} nodes, engine has {n}"
            )
        self.topology = topology

    def run(
        self,
        program: NodeProgram,
        node_input: Any = None,
        *,
        aux: Any = None,
        execution: Any = None,
    ) -> RunResult:
        """Execute ``program`` on all nodes synchronously.

        This is the canonical run signature; ``run_algorithm`` is a thin
        wrapper over it.

        ``node_input`` and ``aux`` are per-node specs (see
        :func:`_resolve_per_node`); typically ``node_input`` is the input
        :class:`CliqueGraph`.

        ``execution`` says how the run executes, and never changes its
        outputs, rounds or bits: a :class:`repro.engine.ExecutionSpec`,
        its dict form, or an engine name or
        :class:`repro.engine.Engine` instance as shorthand for the
        spec's engine.  Its fields:

        * ``engine``: ``None`` (the default) or ``"reference"`` for the
          always-validating, transcript-capable reference engine,
          ``"fast"`` for the batched performance engine, ``"columnar"``
          for the vectorised whole-round array-program engine, or any
          engine instance (e.g. ``FastEngine(check="full")``);
        * ``check``: the validation level (``"full"`` or
          ``"bandwidth"``) for an engine named or left unset; a conflicting
          pre-configured engine instance raises;
        * ``observer``: ``None`` (the default) collects
          :class:`repro.obs.RunMetrics` into ``RunResult.metrics``;
          ``False`` disables observation; a ``{"observer": "metrics",
          "links": bool, "profile": bool}`` dict configures the
          collector; any observer instance (e.g. a ``Tracer``) receives
          the run's event stream;
        * ``fault_plan``: deterministic, seed-replayable network faults
          (drops, corruption, duplication, link failures, node crashes)
          injected at delivery time, as a :class:`repro.faults.FaultPlan`
          or a spec string like ``"drop=0.2,seed=7"``; injected faults
          surface as ``fault`` counters in ``RunResult.metrics`` and
          ``fault`` events in an attached tracer;
        * ``transcripts``: overrides the clique's ``record_transcripts``
          flag for this run when not ``None``.
        """
        # Imported lazily: repro.engine sits above the clique substrate
        # in the layering, so the substrate must not load it at import
        # time.
        from ..engine import resolve_execution

        resolved = resolve_execution(execution)
        inputs = _resolve_per_node(node_input, self.n)
        auxes = _resolve_per_node(aux, self.n)
        return resolved.engine.execute(
            self,
            program,
            inputs,
            auxes,
            observer=resolved.observer,
            transcripts=resolved.transcripts,
            fault_plan=resolved.fault_plan,
        )
