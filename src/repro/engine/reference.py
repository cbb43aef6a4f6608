"""The reference execution backend.

This is the original lockstep generator engine, extracted verbatim from
``repro.clique.network``: with ``check="full"`` (the default) it
validates every queued message against the model's rules at send time
(one message of at most ``B`` bits per ordered pair per round), supports
transcript recording, the broadcast congested clique, and restricted
CONGEST topologies.  It is the semantic ground truth every other backend
is differentially tested against (:mod:`repro.engine.diff`).

The engine speaks the canonical validation vocabulary
(:data:`repro.engine.base.CHECK_LEVELS`): ``check="bandwidth"`` keeps
only the per-link bit-budget enforcement — matching the fast engine's
levels so ``check=`` means the same thing regardless of backend.

Observability: the engine emits into the :class:`repro.obs.Observer`
protocol — per-round aggregate stats always, per-message events and
phase timings (``spawn`` / ``validate`` / ``deliver`` / ``advance``)
when the attached observer asks for them.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..clique.bits import BitString
from ..clique.errors import (
    BandwidthExceeded,
    ProtocolViolation,
    RoundLimitExceeded,
)
from ..clique.network import NodeProgram, RunResult
from ..clique.node import Node
from ..clique.transcript import RoundRecord, Transcript
from ..faults import FaultInjector, resolve_fault_plan
from ..obs import RoundStats, resolve_observer
from ..obs.profile import PhaseTimer
from .base import (
    CHECK_LEVELS,
    Engine,
    canonical_check,
    register_engine,
    spawn_generators,
)

__all__ = ["ReferenceEngine"]


class _LaxNode(Node):
    """Node for ``check="bandwidth"``: only the bit-budget check.

    A repeated send to the same destination simply overwrites (last
    write wins), matching the fast engine's behaviour at the same level.
    """

    __slots__ = ()

    def send(self, dst: int, payload: BitString) -> None:
        if len(payload) > self.bandwidth:
            raise BandwidthExceeded(self.id, dst, len(payload), self.bandwidth)
        self._outbox[dst] = payload

    def send_to_all(self, payload: BitString) -> None:
        if len(payload) > self.bandwidth:
            raise BandwidthExceeded(
                self.id, 0 if self.id != 0 else 1, len(payload), self.bandwidth
            )
        for dst in range(self.n):
            if dst != self.id:
                self._outbox[dst] = payload

    def _bulk_send(self, dst: int, payload: BitString) -> None:
        if len(payload) == 0:
            return
        self._bulk_outbox[dst] = payload


@register_engine
class ReferenceEngine(Engine):
    """Always-validating, transcript-capable lockstep backend.

    The engine advances one generator-coroutine per node in lockstep:

    1. every live node's generator runs until its next ``yield``
       (queueing messages via ``Node.send``) or until it returns (halts
       with an output),
    2. the engine validates every queued message against the model's
       rules and the active model variant (broadcast-only, CONGEST
       topology),
    3. messages are delivered into the recipients' inboxes and the round
       counter increments.

    Parameters
    ----------
    check:
        Validation level (``"full"`` or ``"bandwidth"``); the
        default ``"full"`` is this engine's historical, ground-truth
        behaviour.  Model-variant checks (broadcast-only discipline,
        CONGEST topology edges) are part of the model itself and stay on
        at every level.
    """

    name = "reference"

    def __init__(self, check: str = "full") -> None:
        check = canonical_check(check)
        self.check = "full" if check is None else check
        if self.check not in CHECK_LEVELS:  # pragma: no cover - canonical_check guards
            raise ProtocolViolation(f"check must be one of {CHECK_LEVELS}")

    def describe(self) -> dict:
        """Engine configuration (cache key component)."""
        if self.check == "full":
            # Historical shape: a default-configured reference engine has
            # always described itself as just {"engine": "reference"}, and
            # existing cache entries are keyed on that.
            return {"engine": self.name}
        return {"engine": self.name, "check": self.check}

    def execute(
        self,
        clique,
        program: NodeProgram,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
        *,
        observer: Any = None,
        transcripts: bool | None = None,
        fault_plan: Any = None,
    ) -> RunResult:
        """Run ``program`` on all nodes synchronously (see class docs)."""
        n = clique.n
        obs = resolve_observer(observer)
        plan = resolve_fault_plan(fault_plan)
        injector = (FaultInjector(plan, n, obs) if plan is not None else None)
        timing = obs is not None and obs.wants_timing
        per_message = obs is not None and obs.wants_messages
        track_halts = obs is not None and obs.wants_halts
        timer = PhaseTimer() if timing else None
        if timer is not None:
            timer.start("spawn")
        if self.check == "full":
            nodes = [
                Node(v, n, clique.bandwidth, inputs[v], auxes[v])
                for v in range(n)
            ]
        else:
            nodes = [
                _LaxNode(v, n, clique.bandwidth, inputs[v], auxes[v])
                for v in range(n)
            ]
        gens = spawn_generators(program, nodes)
        outputs: dict[int, Any] = {}
        records: list[list[RoundRecord]] = [[] for _ in range(n)]

        live = set(range(n))
        rounds = 0
        total_bits = 0
        bulk_bits = 0
        sent_bits = [0] * n
        received_bits = [0] * n
        record_transcripts = (
            transcripts
            if transcripts is not None
            else clique.record_transcripts
        )
        if obs is not None:
            obs.on_run_start(n=n, bandwidth=clique.bandwidth, engine=self.name)

        def advance(v: int) -> None:
            try:
                next(gens[v])
            except StopIteration as stop:
                outputs[v] = stop.value
                nodes[v]._halted = True
                live.discard(v)
                if track_halts:
                    obs.on_halt(round=rounds, node=v)

        # Initial local-computation phase (before the first round).
        if timer is not None:
            timer.start("advance")
        for v in range(n):
            advance(v)
        if timer is not None:
            obs.on_phases(round=0, seconds=timer.flush())

        while True:
            pending = any(nodes[v]._outbox or nodes[v]._bulk_outbox for v in range(n))
            if not live and not pending:
                break
            if rounds >= clique.max_rounds:
                raise RoundLimitExceeded(clique.max_rounds)
            this_round = rounds + 1

            # Validate: model-variant rules over all queued messages.
            if timer is not None:
                timer.start("validate")
            for v in range(n):
                node = nodes[v]
                if clique.broadcast_only and node._outbox:
                    payloads = set(node._outbox.values())
                    if len(payloads) != 1 or len(node._outbox) != n - 1:
                        raise ProtocolViolation(
                            f"broadcast congested clique: node {v} must "
                            f"send one identical message to all n-1 peers "
                            f"or stay silent (sent {len(node._outbox)} "
                            f"messages, {len(payloads)} distinct)"
                        )
                if clique.broadcast_only and node._bulk_outbox:
                    raise ProtocolViolation(
                        "broadcast congested clique: the cost-model bulk "
                        "channel is unicast; use direct message passing"
                    )
                if clique.topology is not None:
                    for dst in node._outbox:
                        if not clique.topology.has_edge(v, dst):
                            raise ProtocolViolation(
                                f"CONGEST: node {v} sent to non-neighbour "
                                f"{dst}"
                            )

            # Deliver: swap outboxes into inboxes.
            if timer is not None:
                timer.start("deliver")
            inboxes: list[dict[int, BitString]] = [{} for _ in range(n)]
            sent_records: list[dict[int, BitString]] = [{} for _ in range(n)]
            round_msg_bits = 0
            round_bulk_bits = 0
            round_msgs = 0
            round_bulk_msgs = 0
            round_sent = [0] * n
            round_received = [0] * n
            if injector is not None:
                # Duplicate carryover lands first so a genuine message
                # on the same link wins the inbox slot.
                injector.inject_pending(this_round, inboxes, round_received)
            for v in range(n):
                node = nodes[v]
                for dst, payload in node._outbox.items():
                    plen = len(payload)
                    round_msg_bits += plen
                    round_msgs += 1
                    round_sent[v] += plen
                    delivered = (
                        payload
                        if injector is None
                        else injector.deliver(this_round, v, dst, payload)
                    )
                    if delivered is not None:
                        round_received[dst] += plen
                        inboxes[dst][v] = delivered
                    if record_transcripts:
                        sent_records[v][dst] = payload
                    if per_message and delivered is not None:
                        obs.on_message(
                            round=this_round,
                            src=v,
                            dst=dst,
                            bits=plen,
                            kind="unicast",
                        )
                for dst, payload in node._bulk_outbox.items():
                    plen = len(payload)
                    round_bulk_bits += plen
                    round_bulk_msgs += 1
                    round_sent[v] += plen
                    round_received[dst] += plen
                    inboxes[dst][v] = payload
                    if record_transcripts:
                        sent_records[v][dst] = payload
                    if per_message:
                        obs.on_message(
                            round=this_round,
                            src=v,
                            dst=dst,
                            bits=plen,
                            kind="bulk",
                        )
                node._outbox = {}
                node._bulk_outbox = {}
            if injector is not None:
                # Forged-identity messages land last, into slots no
                # genuine delivery claimed.
                injector.finish_round(this_round, inboxes, round_received)
            total_bits += round_msg_bits
            bulk_bits += round_bulk_bits
            for v in range(n):
                sent_bits[v] += round_sent[v]
                received_bits[v] += round_received[v]
            rounds = this_round
            if obs is not None:
                obs.on_round(
                    RoundStats(
                        round=this_round,
                        unicast_messages=round_msgs,
                        broadcast_messages=0,
                        bulk_messages=round_bulk_msgs,
                        message_bits=round_msg_bits,
                        bulk_bits=round_bulk_bits,
                        sent_bits=round_sent,
                        received_bits=round_received,
                    )
                )

            for v in range(n):
                nodes[v]._inbox = inboxes[v]
                nodes[v]._round = rounds
                if record_transcripts:
                    records[v].append(
                        RoundRecord(sent=sent_records[v], received=dict(inboxes[v]))
                    )

            if timer is not None:
                timer.start("advance")
            for v in sorted(live):
                advance(v)
            if timer is not None:
                obs.on_phases(round=this_round, seconds=timer.flush())

        out_transcripts = None
        if record_transcripts:
            out_transcripts = tuple(
                Transcript(node=v, n=n, rounds=tuple(records[v]))
                for v in range(n)
            )
        counters = tuple(dict(nodes[v].counters) for v in range(n))
        metrics = None
        if obs is not None:
            obs.on_run_end(rounds=rounds, counters=counters)
            metrics = obs.run_metrics()
        return RunResult(
            outputs=outputs,
            rounds=rounds,
            total_message_bits=total_bits,
            bulk_bits=bulk_bits,
            sent_bits=tuple(sent_bits),
            received_bits=tuple(received_bits),
            counters=counters,
            transcripts=out_transcripts,
            metrics=metrics,
        )
