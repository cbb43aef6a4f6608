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
  model is built on; ``check="off"`` trusts the program entirely.
* **Transcripts off by default.**  Recording is only enabled when the
  clique (or the engine) explicitly asks for it; the hot delivery loop
  carries no per-message recording branches otherwise.

The fast engine supports the plain congested clique only; the
broadcast-only variant and restricted CONGEST topologies need the
per-message validation of the reference engine and raise
:class:`~repro.clique.errors.CliqueError` here.  Observational
equivalence with the reference backend on the algorithm catalog is
enforced by :mod:`repro.engine.diff`.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

import numpy as np

from ..clique.bits import BitString
from ..clique.errors import (
    BandwidthExceeded,
    CliqueError,
    DuplicateMessage,
    ProtocolViolation,
    RoundLimitExceeded,
)
from ..clique.network import NodeProgram, RunResult
from ..clique.node import Node
from ..clique.transcript import RoundRecord, Transcript
from ..faults import FaultInjector, resolve_fault_plan
from ..obs import MetricsCollector, RoundStats, resolve_observer
from ..obs.profile import PhaseTimer
from .base import (
    CHECK_LEVELS,
    Engine,
    canonical_check,
    register_engine,
    spawn_generators,
)
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
        check = self._check
        if check == "bandwidth":
            if len(payload) > self.bandwidth:
                raise BandwidthExceeded(self.id, dst, len(payload), self.bandwidth)
        elif check == "full":
            self._check_can_send(dst)
            if len(payload) > self.bandwidth:
                raise BandwidthExceeded(self.id, dst, len(payload), self.bandwidth)
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
        check = self._check
        if check == "bandwidth":
            if len(payload) > self.bandwidth:
                raise BandwidthExceeded(
                    self.id,
                    0 if self.id != 0 else 1,
                    len(payload),
                    self.bandwidth,
                )
        elif check == "full":
            self._check_can_send(0 if self.id != 0 else 1)
            if len(payload) > self.bandwidth:
                raise BandwidthExceeded(
                    self.id,
                    0 if self.id != 0 else 1,
                    len(payload),
                    self.bandwidth,
                )
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
        Validation level: ``"full"``, ``"bandwidth"`` (default) or
        ``"off"`` (see the module docstring).
    record_transcripts:
        Force transcript recording even when the clique does not request
        it.  Defaults to ``False``; recording is also enabled when the
        clique was built with ``record_transcripts=True``.
    shuffle_seed:
        If given, deliver each round's messages in a pseudo-random
        order derived from this seed.  Message delivery in the model is
        an unordered set, so results must be invariant under this
        permutation — the property the hypothesis tests check.
    """

    name = "fast"

    def __init__(
        self,
        check: str = "bandwidth",
        record_transcripts: bool = False,
        shuffle_seed: int | None = None,
    ) -> None:
        check = canonical_check(check)
        if check not in CHECK_LEVELS:
            raise CliqueError(f"check must be one of {CHECK_LEVELS}, got {check!r}")
        self.check = check
        self.record_transcripts = record_transcripts
        self.shuffle_seed = shuffle_seed

    def describe(self) -> dict:
        """Engine configuration (cache key component)."""
        return {
            "engine": self.name,
            "check": self.check,
            "record_transcripts": self.record_transcripts,
            "shuffle_seed": self.shuffle_seed,
        }

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
        """Run ``program`` on all nodes with batched message delivery."""
        if clique.broadcast_only or clique.topology is not None:
            raise CliqueError(
                "the fast engine supports the plain congested clique only; "
                "use the reference engine for broadcast-only cliques or "
                "CONGEST topologies"
            )
        n = clique.n
        check = self.check
        full_check = check == "full"
        record = (
            transcripts
            if transcripts is not None
            else (self.record_transcripts or clique.record_transcripts)
        )
        obs = resolve_observer(observer)
        plan = resolve_fault_plan(fault_plan)
        injector = (FaultInjector(plan, n, obs) if plan is not None else None)
        per_message = obs is not None and obs.wants_messages
        track_halts = obs is not None and obs.wants_halts
        timer = (PhaseTimer() if obs is not None and obs.wants_timing else None)
        if timer is not None:
            timer.start("spawn")
        rng = (
            random.Random(self.shuffle_seed)
            if self.shuffle_seed is not None
            else None
        )
        nodes = [
            _FastNode(v, n, clique.bandwidth, inputs[v], auxes[v], check)
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
        # The default collector computes the same per-node totals the
        # engine needs for RunResult (vectorised at run end); reuse them
        # instead of keeping a duplicate per-round log.  Custom
        # observers cannot be trusted for engine accounting.
        reuse_totals = type(obs) is MetricsCollector
        round_sent_log: list[list[int]] = []
        round_received_log: list[list[int]] = []
        intern: dict[BitString, BitString] = {}
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
            if not live and not any(
                node._flat_out or node._flat_bulk for node in nodes
            ):
                break
            if rounds >= clique.max_rounds:
                raise RoundLimitExceeded(clique.max_rounds)
            this_round = rounds + 1

            if timer is not None:
                timer.start("deliver")
            inboxes: list[dict[int, BitString]] = [{} for _ in range(n)]
            # When an observer is attached, deliver into round-local
            # accounting arrays so per-round deltas come for free; the
            # unobserved hot path accumulates in place.
            if obs is not None:
                round_sent = [0] * n
                round_received = [0] * n
            else:
                round_sent = sent_bits
                round_received = received_bits
            if rng is not None or record or per_message or injector is not None:
                # Something needs every message: the shared core.
                rows, bits = sender_rows(
                    drain_entries(enumerate(nodes)), n, round_sent
                )
                sent_records = [{} for _ in range(n)] if record else None
                deliver_rows(
                    this_round,
                    rows,
                    inboxes,
                    round_received,
                    injector=injector,
                    sent_records=sent_records,
                    obs=obs if per_message else None,
                    rng=rng,
                )
            else:
                sent_records = None
                bits = self._deliver_batched(
                    nodes, inboxes, round_sent, round_received, intern
                )
            total_bits += bits[0]
            bulk_bits += bits[1]
            if full_check:
                for node in nodes:
                    node._sent_to.clear()
            rounds = this_round
            if obs is not None:
                # Totals are summed once at run end (numpy column sum)
                # instead of per round, keeping the observed path close
                # to the unobserved one.
                if not reuse_totals:
                    round_sent_log.append(round_sent)
                    round_received_log.append(round_received)
                # Positional construction: the dataclass ctor is ~2x
                # faster without keyword matching, and this runs once
                # per round on the observed hot path.  Field order is
                # (round, unicast, broadcast, bulk, message_bits,
                # bulk_bits, sent_bits, received_bits).
                obs.on_round(
                    RoundStats(
                        this_round,
                        bits[2],
                        bits[3],
                        bits[4],
                        bits[0],
                        bits[1],
                        round_sent,
                        round_received,
                    )
                )

            for v in range(n):
                nodes[v]._inbox = inboxes[v]
                nodes[v]._round = rounds
                if record:
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
        if record:
            out_transcripts = tuple(
                Transcript(node=v, n=n, rounds=tuple(records[v]))
                for v in range(n)
            )
        counters = tuple(dict(nodes[v].counters) for v in range(n))
        metrics = None
        if obs is not None:
            if round_sent_log:
                try:
                    sent_bits = (
                        np.asarray(round_sent_log, dtype=np.int64)
                        .sum(axis=0)
                        .tolist()
                    )
                    received_bits = (
                        np.asarray(round_received_log, dtype=np.int64)
                        .sum(axis=0)
                        .tolist()
                    )
                except OverflowError:  # pragma: no cover - >int64 bits
                    for row in round_sent_log:
                        sent_bits = [a + b for a, b in zip(sent_bits, row)]
                    for row in round_received_log:
                        received_bits = [
                            a + b for a, b in zip(received_bits, row)
                        ]
            obs.on_run_end(rounds=rounds, counters=counters)
            metrics = obs.run_metrics()
            if reuse_totals and metrics is not None and rounds:
                sent_bits = list(metrics.sent_bits)
                received_bits = list(metrics.received_bits)
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

    @staticmethod
    def _deliver_batched(
        nodes: list[_FastNode],
        inboxes: list[dict[int, BitString]],
        sent_bits: list[int],
        received_bits: list[int],
        intern: dict[BitString, BitString],
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
