"""The fast execution backend.

Same ``NodeProgram`` semantics as the reference engine, restructured for
throughput:

* **Batched message delivery.**  Each node queues sends into a single
  flat outbox list per round instead of a per-pair dict; a broadcast
  (``send_to_all``) is one list entry expanded at delivery time, and the
  per-node sent/received bit accounting for broadcasts is computed in
  bulk rather than per message.
* **Optional validation.**  ``check="full"`` reproduces every model
  check of the reference engine (addressing, duplicates, empty
  payloads, bandwidth); ``check="bandwidth"`` (the default) keeps only
  the per-link bit-budget enforcement — the check the paper's cost
  model is built on.
* **Transcripts off by default.**  Recording is only enabled when the
  clique (or the engine) explicitly asks for it; the hot delivery loop
  carries no per-message recording branches otherwise.

The round loop, the termination rule and all accounting are the shared
:meth:`repro.engine.base.Engine.execute`; this module owns the node
class (its send-time validation) and the round's delivery: the batched
hot path, or :func:`repro.engine.delivery.deliver_rows` whenever a
fault plan, transcripts, a per-message observer or ``shuffle_seed``
needs every message.

The fast engine supports the plain congested clique only; the
broadcast-only variant and restricted CONGEST topologies need the
per-message validation of the reference engine and raise
:class:`~repro.clique.errors.CliqueError` here.  Observational
equivalence with the reference backend on the algorithm catalog is
enforced by :mod:`repro.engine.diff`.
"""

from __future__ import annotations

import random
from typing import Any

from ..clique.bits import BitString
from ..clique.errors import (
    BandwidthExceeded,
    CliqueError,
    DuplicateMessage,
    ProtocolViolation,
)
from ..clique.node import Node
from ..obs import RoundStats
from .base import CHECK_LEVELS, Engine, NodeStepper, canonical_check, register_engine
from .delivery import BROADCAST as _BROADCAST
from .delivery import deliver_rows, drain_entries, sender_rows

__all__ = ["CHECK_LEVELS", "FastEngine"]


class _FastNode(Node):
    """Node with a flat outbox and validation chosen by the engine.

    ``_flat_out`` holds ``(dst, payload)`` entries; ``dst == -1`` marks
    a broadcast to all other nodes.  ``_flat_bulk`` is the privileged
    cost-model router channel (see ``Node._bulk_send``).
    """

    __slots__ = ("_check", "_flat_out", "_flat_bulk", "_sent_to")

    def __init__(
        self,
        node_id: int,
        n: int,
        bandwidth: int,
        node_input: Any,
        aux: Any,
        check: str,
    ) -> None:
        super().__init__(node_id, n, bandwidth, node_input, aux)
        self._check = check
        self._flat_out: list[tuple[int, BitString]] = []
        self._flat_bulk: list[tuple[int, BitString]] = []
        self._sent_to: set[int] = set()

    def send(self, dst: int, payload: BitString) -> None:
        """Queue one message for ``dst`` (validation per the check level)."""
        full = self._check == "full"
        if full:
            self._check_can_send(dst)
        if len(payload) > self.bandwidth:
            raise BandwidthExceeded(self.id, dst, len(payload), self.bandwidth)
        if full:
            if len(payload) == 0:
                raise ProtocolViolation(
                    f"node {self.id} sent an empty message to {dst}; "
                    f"omit the send instead"
                )
            if dst in self._sent_to:
                raise DuplicateMessage(self.id, dst)
            self._sent_to.add(dst)
        self._flat_out.append((dst, payload))

    def send_to_all(self, payload: BitString) -> None:
        """Queue the same message for every other node as one flat entry."""
        if self.n == 1:
            return
        full = self._check == "full"
        if full:
            self._check_can_send(0 if self.id != 0 else 1)
        if len(payload) > self.bandwidth:
            raise BandwidthExceeded(
                self.id,
                0 if self.id != 0 else 1,
                len(payload),
                self.bandwidth,
            )
        if full:
            if len(payload) == 0:
                raise ProtocolViolation(
                    f"node {self.id} sent an empty message in a broadcast; "
                    f"omit the send instead"
                )
            for dst in range(self.n):
                if dst != self.id and dst in self._sent_to:
                    raise DuplicateMessage(self.id, dst)
            for dst in range(self.n):
                if dst != self.id:
                    self._sent_to.add(dst)
        self._flat_out.append((_BROADCAST, payload))

    def _bulk_send(self, dst: int, payload: BitString) -> None:
        """Privileged unbounded send for the cost-model router."""
        if self._check == "full":
            self._check_can_send(dst)
            if dst in self._sent_to:
                raise DuplicateMessage(self.id, dst)
            self._sent_to.add(dst)
        if len(payload) == 0:
            return
        self._flat_bulk.append((dst, payload))


@register_engine
class FastEngine(Engine):
    """Performance backend with batched delivery and optional validation.

    Parameters
    ----------
    check:
        Validation level: ``"full"`` or ``"bandwidth"`` (default; see
        the module docstring).
    shuffle_seed:
        If given, deliver each round's messages in a pseudo-random
        order derived from this seed.  Message delivery in the model is
        an unordered set, so results must be invariant under this
        permutation — the property the hypothesis tests check.
    """

    name = "fast"

    def __init__(
        self,
        check: str | None = None,
        shuffle_seed: int | None = None,
    ) -> None:
        self.check = canonical_check(check, "bandwidth")
        self.shuffle_seed = shuffle_seed

    def describe(self) -> dict:
        """Engine configuration (cache key component)."""
        return {
            "engine": self.name,
            "check": self.check,
            "shuffle_seed": self.shuffle_seed,
        }

    def _admit(self, clique, program) -> None:
        if clique.broadcast_only or clique.topology is not None:
            raise CliqueError(
                "the fast engine supports the plain congested clique only; "
                "use the reference engine for broadcast-only cliques or "
                "CONGEST topologies"
            )

    def _start(self, clique, program, inputs, auxes, **run) -> "_FastRun":
        nodes = [
            _FastNode(v, clique.n, clique.bandwidth, inputs[v], auxes[v], self.check)
            for v in range(clique.n)
        ]
        return _FastRun(program, nodes, self.check, self.shuffle_seed, **run)


class _FastRun(NodeStepper):
    """One fast-engine run: flat outboxes, batched or row-wise delivery."""

    validate = None

    def __init__(
        self, program, nodes, check, shuffle_seed, *, injector, obs, record, on_halt
    ) -> None:
        super().__init__(program, nodes, on_halt)
        self.full_check = check == "full"
        self.rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
        self.injector = injector
        self.obs = obs
        self.record = record
        # Something needs every message: the shared row core.
        self.explicit = (
            self.rng is not None or record or obs is not None or injector is not None
        )
        self.intern: dict[BitString, BitString] = {}

    def pending(self) -> bool:
        return any(node._flat_out or node._flat_bulk for node in self.nodes)

    def deliver(self, this_round: int):
        """Drain the flat outboxes into the inboxes of ``this_round``."""
        nodes = self.nodes
        n = len(nodes)
        inboxes: list[dict[int, BitString]] = [{} for _ in range(n)]
        round_sent = [0] * n
        round_received = [0] * n
        sent_records = None
        if self.explicit:
            rows, bits = sender_rows(drain_entries(enumerate(nodes)), n, round_sent)
            if self.record:
                sent_records = [{} for _ in range(n)]
            deliver_rows(
                this_round,
                rows,
                inboxes,
                round_received,
                injector=self.injector,
                sent_records=sent_records,
                obs=self.obs,
                rng=self.rng,
            )
        else:
            bits = self._deliver_batched(inboxes, round_sent, round_received)
        if self.full_check:
            for node in nodes:
                node._sent_to.clear()
        # Positional construction: the dataclass ctor is ~2x faster
        # without keyword matching, and this runs once per round.  Field
        # order is (round, unicast, broadcast, bulk, message_bits,
        # bulk_bits, sent_bits, received_bits).
        stats = RoundStats(
            this_round,
            bits[2],
            bits[3],
            bits[4],
            bits[0],
            bits[1],
            round_sent,
            round_received,
        )
        return stats, self.hand_off(this_round, inboxes, sent_records)

    def _deliver_batched(
        self,
        inboxes: list[dict[int, BitString]],
        sent_bits: list[int],
        received_bits: list[int],
    ) -> tuple[int, int, int, int, int]:
        """Hot path: drain all flat outboxes into the inboxes.

        A sender whose round consists of exactly one broadcast — the
        dominant shape in the catalog — lands in a shared
        ``{sender: payload}`` bucket; each receiver then gets a C-speed
        ``dict`` copy of that bucket (minus its own slot, plus any
        directly-stored unicast/bulk slots) instead of ``n * (n - 1)``
        interpreted per-recipient stores.  Mixed outboxes fall back to
        explicit expansion with the same accounting.  Small repeated
        broadcast payloads are interned so identical bit strings share
        one object (and one cached hash) across senders and rounds.

        Returns ``(message_bits, bulk_bits, unicast_messages,
        broadcast_messages, bulk_messages)`` where broadcast messages
        are counted per recipient.
        """
        nodes = self.nodes
        intern = self.intern
        n = len(nodes)
        total_bits = 0
        bulk_bits = 0
        unicast_msgs = 0
        broadcast_msgs = 0
        bulk_msgs = 0
        base: dict[int, BitString] = {}
        base_bits = 0
        mixed_total = 0
        mixed_sent: list[int] | None = None
        for v, node in enumerate(nodes):
            out = node._flat_out
            if out:
                if len(out) == 1 and out[0][0] == _BROADCAST:
                    payload = out[0][1]
                    plen = len(payload)
                    if plen <= 64:
                        payload = intern.setdefault(payload, payload)
                    base[v] = payload
                    base_bits += plen
                    fanned = plen * (n - 1)
                    sent_bits[v] += fanned
                    total_bits += fanned
                    broadcast_msgs += n - 1
                else:
                    sent = 0
                    for dst, payload in out:
                        plen = len(payload)
                        if dst == _BROADCAST:
                            for u in range(v):
                                inboxes[u][v] = payload
                            for u in range(v + 1, n):
                                inboxes[u][v] = payload
                            fanned = plen * (n - 1)
                            sent += fanned
                            total_bits += fanned
                            broadcast_msgs += n - 1
                            mixed_total += plen
                            if mixed_sent is None:
                                mixed_sent = [0] * n
                            mixed_sent[v] += plen
                        else:
                            inboxes[dst][v] = payload
                            sent += plen
                            total_bits += plen
                            unicast_msgs += 1
                            received_bits[dst] += plen
                    sent_bits[v] += sent
                node._flat_out = []
            bulk = node._flat_bulk
            if bulk:
                for dst, payload in bulk:
                    plen = len(payload)
                    bulk_bits += plen
                    bulk_msgs += 1
                    sent_bits[v] += plen
                    received_bits[dst] += plen
                    inboxes[dst][v] = payload
                node._flat_bulk = []
        if base:
            base_get = base.get
            for u in range(n):
                merged = dict(base)
                own = base_get(u)
                if own is not None:
                    del merged[u]
                    received_bits[u] += base_bits - len(own)
                else:
                    received_bits[u] += base_bits
                direct = inboxes[u]
                if direct:
                    # Direct slots (unicast/bulk) win over the shared
                    # broadcast bucket, matching explicit-store order.
                    merged.update(direct)
                inboxes[u] = merged
        if mixed_total:
            assert mixed_sent is not None
            for u in range(n):
                received_bits[u] += mixed_total - mixed_sent[u]
        return total_bits, bulk_bits, unicast_msgs, broadcast_msgs, bulk_msgs
