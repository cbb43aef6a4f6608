"""The reference execution backend.

This is the original lockstep generator engine: with ``check="full"``
(the default) it validates every queued message against the model's
rules at send time (one message of at most ``B`` bits per ordered pair
per round), supports transcript recording, the broadcast congested
clique, and restricted CONGEST topologies.  It is the semantic ground
truth every other backend is differentially tested against
(:mod:`repro.engine.diff`).

The round loop, the termination rule and all accounting are the shared
:meth:`repro.engine.base.Engine.execute`; this module owns the node
classes, the model-variant checks (its own ``validate`` phase) and the
scalar delivery loop over
:meth:`~repro.faults.FaultInjector.deliver`, kept independent of the
batched forms in :mod:`repro.engine.delivery` so the differential gates
compare those against a separate implementation.

The engine speaks the canonical validation vocabulary
(:data:`repro.engine.base.CHECK_LEVELS`): ``check="bandwidth"`` keeps
only the per-link bit-budget enforcement — matching the fast engine's
levels so ``check=`` means the same thing regardless of backend.

Observability: per-round aggregate stats always, per-message events
and phase timings (``spawn`` / ``validate`` / ``deliver`` /
``advance``) when the attached observer asks for them.
"""

from __future__ import annotations

from ..clique.bits import BitString
from ..clique.errors import BandwidthExceeded, ProtocolViolation
from ..clique.node import Node
from ..obs import RoundStats
from .base import Engine, NodeStepper, canonical_check, register_engine

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

    def __init__(self, check: str | None = None) -> None:
        self.check = canonical_check(check, "full")

    def describe(self) -> dict:
        """Engine configuration (cache key component)."""
        if self.check == "full":
            # Historical shape: a default-configured reference engine has
            # always described itself as just {"engine": "reference"}, and
            # existing cache entries are keyed on that.
            return {"engine": self.name}
        return {"engine": self.name, "check": self.check}

    def _start(self, clique, program, inputs, auxes, **run) -> "_ReferenceRun":
        node_cls = Node if self.check == "full" else _LaxNode
        nodes = [
            node_cls(v, clique.n, clique.bandwidth, inputs[v], auxes[v])
            for v in range(clique.n)
        ]
        return _ReferenceRun(program, nodes, clique, **run)


class _ReferenceRun(NodeStepper):
    """One reference run: per-pair outboxes, delivered message by message."""

    def __init__(
        self, program, nodes, clique, *, injector, obs, record, on_halt
    ) -> None:
        super().__init__(program, nodes, on_halt)
        self.broadcast_only = clique.broadcast_only
        self.topology = clique.topology
        self.injector = injector
        self.obs = obs
        self.record = record

    def pending(self) -> bool:
        return any(node._outbox or node._bulk_outbox for node in self.nodes)

    def validate(self) -> None:
        """Model-variant rules over all queued messages."""
        n = len(self.nodes)
        for v, node in enumerate(self.nodes):
            if self.broadcast_only and node._outbox:
                payloads = set(node._outbox.values())
                if len(payloads) != 1 or len(node._outbox) != n - 1:
                    raise ProtocolViolation(
                        f"broadcast congested clique: node {v} must "
                        f"send one identical message to all n-1 peers "
                        f"or stay silent (sent {len(node._outbox)} "
                        f"messages, {len(payloads)} distinct)"
                    )
            if self.broadcast_only and node._bulk_outbox:
                raise ProtocolViolation(
                    "broadcast congested clique: the cost-model bulk "
                    "channel is unicast; use direct message passing"
                )
            if self.topology is not None:
                for dst in node._outbox:
                    if not self.topology.has_edge(v, dst):
                        raise ProtocolViolation(
                            f"CONGEST: node {v} sent to non-neighbour {dst}"
                        )

    def deliver(self, this_round: int):
        """Swap the outboxes into inboxes, one message at a time."""
        n = len(self.nodes)
        injector = self.injector
        obs = self.obs
        inboxes: list[dict[int, BitString]] = [{} for _ in range(n)]
        sent_records = [{} for _ in range(n)] if self.record else None
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
        for v, node in enumerate(self.nodes):
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
                if sent_records is not None:
                    sent_records[v][dst] = payload
                if obs is not None and delivered is not None:
                    obs.on_message(
                        round=this_round, src=v, dst=dst, bits=plen, kind="unicast"
                    )
            for dst, payload in node._bulk_outbox.items():
                plen = len(payload)
                round_bulk_bits += plen
                round_bulk_msgs += 1
                round_sent[v] += plen
                round_received[dst] += plen
                inboxes[dst][v] = payload
                if sent_records is not None:
                    sent_records[v][dst] = payload
                if obs is not None:
                    obs.on_message(
                        round=this_round, src=v, dst=dst, bits=plen, kind="bulk"
                    )
            node._outbox = {}
            node._bulk_outbox = {}
        if injector is not None:
            # Forged-identity messages land last, into slots no
            # genuine delivery claimed.
            injector.finish_round(this_round, inboxes, round_received)
        stats = RoundStats(
            round=this_round,
            unicast_messages=round_msgs,
            broadcast_messages=0,
            bulk_messages=round_bulk_msgs,
            message_bits=round_msg_bits,
            bulk_bits=round_bulk_bits,
            sent_bits=round_sent,
            received_bits=round_received,
        )
        return stats, self.hand_off(this_round, inboxes, sent_records)
