"""Delivery-time fault injection shared by every engine.

A :class:`FaultInjector` is the small piece of *per-run* state wrapped
around a pure :class:`~repro.faults.plan.FaultPlan`: the crash-window
memo (so a plan's O(round) ``node_down`` query stays O(1) amortised)
and the one-round carryover buffer for duplicated messages.  Engines
hold exactly one injector per run and consult it at these points:

* :meth:`inject_pending` — at the start of each round's delivery phase,
  before any real message lands, so a real same-link message wins the
  inbox slot over a stale duplicate;
* :meth:`deliver` — once per queued bandwidth-checked message; the
  return value (possibly corrupted payload, or ``None`` for a lost
  message) replaces the payload the engine would have delivered.  This
  scalar form is the executable semantics, and the reference engine
  uses it;
* :meth:`deliver_row` — the batched form the fast and columnar
  engines' explicit delivery (:mod:`repro.engine.delivery`) uses: one
  call decides all of one sender's messages of a round, bit-identical
  to :meth:`deliver` called per message in the same order;
* :meth:`finish_round` — after the round's real deliveries, to land
  forged-identity messages buffered by the Byzantine tier into inbox
  slots genuine messages did not claim.  Engines without Byzantine
  plans may still call it unconditionally — it is a no-op then.

:meth:`pop_pending` and :meth:`take_forged` hand the duplicate and
forged buffers out as lists, for the columnar engine's explicit
delivery, which works on arrays and has no dict inboxes to write into;
it emits the matching ``on_message`` events itself, in the order
:meth:`inject_pending` and :meth:`finish_round` would.

Because every decision ultimately comes from the plan's coordinate
hashes, two engines delivering the same logical messages in different
orders inject byte-identical faults — the property that lets
:mod:`repro.engine.diff` differentially test faulty runs across
backends.

Accounting contract (mirrors "the sender pays"): the engine charges the
sender's ``sent_bits`` and the run's ``total_message_bits`` for every
*queued* message, faulty or not — bandwidth is consumed at send time in
a synchronous network.  Receiver-side effects (``received_bits``, the
inbox slot) happen only for messages that actually arrive; duplicate
redeliveries charge the receiver only.  Every injected fault is
reported through ``Observer.on_fault``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

from ..clique.bits import BitString
from .plan import FaultPlan, digest_threshold

__all__ = ["FaultInjector"]


class FaultInjector:
    """Per-run fault state over a pure :class:`FaultPlan`.

    Parameters
    ----------
    plan:
        The fault schedule.
    n:
        Clique size (crash triggers are scanned per node per round).
    observer:
        The run's resolved observer (or ``None``); receives one
        ``on_fault`` event per injected fault and — when it wants
        per-message callbacks — an ``on_message`` event for each
        duplicate redelivery.
    """

    def __init__(self, plan: FaultPlan, n: int, observer: Any = None) -> None:
        self.plan = plan
        self.n = n
        self.observer = observer
        #: round -> {(src, dst): payload} duplicates awaiting redelivery.
        self._pending: dict[int, dict[tuple[int, int], BitString]] = {}
        #: node -> last round it is down (math.inf = never restarts).
        self._down_until: dict[int, float] = {}
        self._scanned_round = 0
        #: The fixed adversarial node set (empty when the tier is off).
        self.byzantine: frozenset[int] = plan.byzantine_nodes(n)
        self._behaviours = frozenset(plan.byzantine_behaviours())
        #: Forged messages buffered until :meth:`finish_round`, as
        #: ``(forged_src, dst, real_src, payload)`` tuples.
        self._forged: list[tuple[int, int, int, BitString]] = []
        #: The Byzantine set in ascending order, for forged identities.
        self._byz_order = tuple(sorted(self.byzantine))
        #: (round, src) -> reachable set memo for limited broadcast;
        #: holds the current round only (cleared by :meth:`take_forged`).
        self._limit_memo: dict[tuple[int, int], frozenset[int]] = {}
        # Batched decisions (deliver_row): the digest bound of every
        # per-message kind whose rate is non-zero, computed once per run.
        # Zero-rate kinds never fire, so rows skip them entirely.
        self._thresholds = {
            kind: digest_threshold(rate)
            for kind, rate in (
                ("link", plan.link_failure_rate),
                ("drop", plan.drop_rate),
                ("corrupt", plan.corrupt_rate),
                ("dup", plan.duplicate_rate),
                ("byz", plan.byzantine_rate),
            )
            if rate > 0.0
        }
        self._tails = [str(v).encode() for v in range(n)]
        self._link_keys: dict[int, Any] = {}
        #: Per-round caches: the round they hold, the down set and the
        #: ``(kind, src)`` -> keyed hash prefixes.
        self._cache_round = -1
        self._down: frozenset[int] = frozenset()
        self._prefixes: dict[tuple[str, int], Any] = {}

    # -- crash schedule (memoised form of plan.node_down) ----------------

    def node_down(self, round: int, node: int) -> bool:
        """Whether ``node`` is fail-silent during ``round`` (memoised)."""
        if self.plan.crash_rate == 0.0:
            return False
        self._scan(round)
        return self._down_until.get(node, -1) >= round

    def _scan(self, round: int) -> None:
        """Fold the crash triggers of every round up to ``round``."""
        plan = self.plan
        while self._scanned_round < round:
            self._scanned_round += 1
            r = self._scanned_round
            for v in range(self.n):
                if plan.crashes_at(r, v):
                    until = (
                        math.inf
                        if plan.crash_restart_rounds is None
                        else r + plan.crash_restart_rounds - 1
                    )
                    if until > self._down_until.get(v, -1):
                        self._down_until[v] = until

    # -- delivery hooks ---------------------------------------------------

    def inject_pending(
        self,
        round: int,
        inboxes: list[dict[int, BitString]],
        received_bits: list[int],
    ) -> None:
        """Redeliver duplicates scheduled for ``round``.

        Must run before the engine delivers the round's real messages:
        inbox slots are per ordered pair, and a genuine message must
        shadow a stale duplicate on the same link.  A duplicate aimed at
        a node that is down this round is silently lost (its fault event
        was already emitted when it was scheduled).
        """
        obs = self.observer
        per_message = obs is not None and obs.wants_messages
        for src, dst, payload in self.pop_pending(round):
            plen = len(payload)
            inboxes[dst][src] = payload
            received_bits[dst] += plen
            if per_message:
                obs.on_message(
                    round=round,
                    src=src,
                    dst=dst,
                    bits=plen,
                    kind="duplicate",
                )

    def pop_pending(self, round: int) -> list[tuple[int, int, BitString]]:
        """The duplicates landing in ``round``, as ``(src, dst, payload)``.

        In scheduling order, minus those aimed at a node that is down
        this round.  :meth:`inject_pending` is this list applied to dict
        inboxes; the columnar engine's explicit path consumes it directly.
        """
        pending = self._pending.pop(round, None)
        if not pending:
            return []
        return [
            (src, dst, payload)
            for (src, dst), payload in pending.items()
            if not self.node_down(round, dst)
        ]

    def deliver(
        self, round: int, src: int, dst: int, payload: BitString
    ) -> BitString | None:
        """The payload that actually arrives for this message, if any.

        Checks faults from the most to the least structural: a dead
        link or crashed endpoint loses the message before a per-message
        drop is even considered; corruption and duplication apply only
        to messages that arrive.
        """
        plan = self.plan
        plen = len(payload)
        if plan.link_down(src, dst):
            self._emit(round, src, dst, "link_down", plen)
            return None
        if self.node_down(round, src) or self.node_down(round, dst):
            self._emit(round, src, dst, "crash", plen)
            return None
        if src in self.byzantine:
            behaviours = self._behaviours
            if "selective" in behaviours and plan.byz_selective_drops(
                round, src, dst
            ):
                self._emit(round, src, dst, "byz_selective", plen)
                return None
            if "limited" in behaviours:
                if dst not in self._reachable(round, src):
                    self._emit(round, src, dst, "byz_limited", plen)
                    return None
            if "equivocate" in behaviours and plan.byz_equivocates(
                round, src, dst
            ):
                payload = plan.equivocate_payload(round, src, dst, payload)
                self._emit(round, src, dst, "byz_equivocate", plen)
            if "forge" in behaviours and plan.byz_forges(round, src, dst):
                forged = plan.forged_src(round, src, dst, self._byz_order)
                if forged is not None:
                    self._forged.append((forged, dst, src, payload))
                    self._emit(round, src, dst, "byz_forge", plen)
                    return None
        if plan.drops(round, src, dst):
            self._emit(round, src, dst, "drop", plen)
            return None
        if plan.corrupts(round, src, dst):
            payload = plan.corrupt_payload(round, src, dst, payload)
            self._emit(round, src, dst, "corrupt", plen)
        if plan.duplicates(round, src, dst):
            self._pending.setdefault(round + 1, {})[(src, dst)] = payload
            self._emit(round, src, dst, "duplicate", plen)
        return payload

    def deliver_row(
        self,
        round: int,
        src: int,
        dsts: Sequence[int],
        width: int | Sequence[int],
        payload_at: Callable[[int], BitString],
    ) -> list:
        """Batched :meth:`deliver` over one sender's messages of ``round``.

        ``dsts`` are the destinations in delivery order and ``width`` the
        common payload width (or one width per destination).
        ``payload_at(i)`` builds message ``i``'s payload; it is called
        only for a message a fault rewrites or buffers, so callers may
        hold payloads in any form.  Returns one entry per destination:
        ``None`` (lost), ``True`` (arrives unchanged) or the rewritten
        payload.

        Decisions, fault events and their order, pending duplicates and
        the forged buffer are exactly those of :meth:`deliver` called
        per message in order: each active kind's draws are batched per
        row — one keyed hash prefix per ``(kind, round, src)``, one
        ``copy`` and an 8-byte digest comparison per destination — and
        the check order link → crash → Byzantine → drop → corrupt →
        duplicate is then applied message by message.  Zero-rate kinds
        and, for honest senders, the Byzantine checks cost nothing.
        """
        out: list = [True] * len(dsts)
        if round != self._cache_round:
            self._cache_round = round
            self._prefixes.clear()
            if self.plan.crash_rate != 0.0:
                self._scan(round)
                self._down = frozenset(
                    v for v, until in self._down_until.items() if until >= round
                )
        # Each check as the set of row indices where it fires.
        none = frozenset()
        link = self._links(src, dsts) if "link" in self._thresholds else none
        crash = none
        if self._down:
            down = self._down
            crash = (
                set(range(len(dsts)))
                if src in down
                else {i for i, dst in enumerate(dsts) if dst in down}
            )
        select = limit = equiv = forge = none
        if src in self.byzantine:
            behaviours = self._behaviours
            if "selective" in behaviours:
                select = self._draws("byz-select", "byz", round, src, dsts)
            if "limited" in behaviours:
                reach = self._reachable(round, src)
                limit = {i for i, dst in enumerate(dsts) if dst not in reach}
            if "equivocate" in behaviours:
                equiv = self._draws("byz-equiv", "byz", round, src, dsts)
            if "forge" in behaviours:
                forge = self._draws("byz-forge", "byz", round, src, dsts)
        drop = self._draws("drop", "drop", round, src, dsts)
        corrupt = self._draws("corrupt", "corrupt", round, src, dsts)
        dup = self._draws("dup", "dup", round, src, dsts)
        hits = link | crash | select | limit | equiv | forge | drop | corrupt | dup
        plan = self.plan
        emit = self._emit
        for i in sorted(hits):
            dst = dsts[i]
            bits = width if isinstance(width, int) else width[i]
            if i in link:
                emit(round, src, dst, "link_down", bits)
                out[i] = None
                continue
            if i in crash:
                emit(round, src, dst, "crash", bits)
                out[i] = None
                continue
            if i in select:
                emit(round, src, dst, "byz_selective", bits)
                out[i] = None
                continue
            if i in limit:
                emit(round, src, dst, "byz_limited", bits)
                out[i] = None
                continue
            payload = None
            if i in equiv:
                payload = plan.equivocate_payload(round, src, dst, payload_at(i))
                out[i] = payload
                emit(round, src, dst, "byz_equivocate", bits)
            if i in forge:
                forged = plan.forged_src(round, src, dst, self._byz_order)
                if forged is not None:
                    if payload is None:
                        payload = payload_at(i)
                    self._forged.append((forged, dst, src, payload))
                    emit(round, src, dst, "byz_forge", bits)
                    out[i] = None
                    continue
            if i in drop:
                emit(round, src, dst, "drop", bits)
                out[i] = None
                continue
            if i in corrupt:
                if payload is None:
                    payload = payload_at(i)
                payload = plan.corrupt_payload(round, src, dst, payload)
                out[i] = payload
                emit(round, src, dst, "corrupt", bits)
            if i in dup:
                if payload is None:
                    payload = payload_at(i)
                self._pending.setdefault(round + 1, {})[(src, dst)] = payload
                emit(round, src, dst, "duplicate", bits)
        return out

    def _draws(
        self, kind: str, rate: str, round: int, src: int, dsts: Sequence[int]
    ) -> set[int] | frozenset[int]:
        """The row indices where ``_u01(kind, round, src, dst) < rate``.

        Empty without hashing when the rate is zero.  The keyed prefix
        is cached per round, so a sender with several rows pays for it
        once.
        """
        bound = self._thresholds.get(rate)
        if bound is None:
            return frozenset()
        key = (kind, src)
        prefix = self._prefixes.get(key)
        if prefix is None:
            prefix = self._prefixes[key] = self.plan._prefix(kind, round, src)
        copy = prefix.copy
        tails = self._tails
        fired = set()
        for i, dst in enumerate(dsts):
            h = copy()
            h.update(tails[dst])
            if h.digest() < bound:
                fired.add(i)
        return fired

    def _links(self, src: int, dsts: Sequence[int]) -> set[int]:
        """The row indices whose link ``{src, dst}`` is dead.

        :meth:`FaultPlan.link_down` keys the draw by the ordered pair
        ``(min, max)``, so the prefix is the smaller endpoint's (cached
        for the run) and the tail the larger one.
        """
        bound = self._thresholds["link"]
        keys = self._link_keys
        tails = self._tails
        dead = set()
        for i, dst in enumerate(dsts):
            a, b = (src, dst) if src <= dst else (dst, src)
            prefix = keys.get(a)
            if prefix is None:
                prefix = keys[a] = self.plan._prefix("link", a)
            h = prefix.copy()
            h.update(tails[b])
            if h.digest() < bound:
                dead.add(i)
        return dead

    def _reachable(self, round: int, src: int) -> frozenset[int]:
        """The memoised limited-broadcast receivers of ``src`` this round."""
        key = (round, src)
        reachable = self._limit_memo.get(key)
        if reachable is None:
            reachable = self.plan.byz_limited_reachable(round, src, self.n)
            self._limit_memo[key] = reachable
        return reachable

    def finish_round(
        self,
        round: int,
        inboxes: list[dict[int, BitString]],
        received_bits: list[int],
    ) -> None:
        """Land buffered forged messages after the round's real deliveries.

        Forged messages claim another Byzantine node's identity, so they
        occupy *that* node's inbox slot — but only when it is still
        empty: a genuine message (and every non-forged fault outcome)
        always wins.  The buffer is applied in sorted
        ``(forged_src, dst, real_src)`` order, making the result
        independent of the engine's per-message delivery order.  No-op
        when nothing was forged, so engines may call it unconditionally.
        """
        obs = self.observer
        per_message = obs is not None and obs.wants_messages
        for forged, dst, _real, payload in self.take_forged():
            if forged in inboxes[dst]:
                continue
            plen = len(payload)
            inboxes[dst][forged] = payload
            received_bits[dst] += plen
            if per_message:
                obs.on_message(
                    round=round,
                    src=forged,
                    dst=dst,
                    bits=plen,
                    kind="forged",
                )

    def take_forged(self) -> list[tuple[int, int, int, BitString]]:
        """End the round: the forged buffer, sorted, and emptied.

        Returns ``(forged_src, dst, real_src, payload)`` tuples in the
        order :meth:`finish_round` lands them, and drops the round's
        limited-broadcast memo so it never outlives its round.  A link
        forged twice in one round (repeated sends under lax checks) is
        ordered by payload, so the order never depends on delivery.
        """
        self._limit_memo.clear()
        forged = sorted(
            self._forged, key=lambda t: (t[0], t[1], t[2], t[3].value, len(t[3]))
        )
        self._forged.clear()
        return forged

    def _emit(self, round: int, src: int, dst: int, kind: str, bits: int) -> None:
        if self.observer is not None:
            self.observer.on_fault(round=round, src=src, dst=dst, kind=kind, bits=bits)
