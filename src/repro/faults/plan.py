"""Deterministic, seed-replayable fault plans.

A :class:`FaultPlan` is a *pure* description of an unreliable network:
every decision it makes — drop this message, flip that bit, duplicate,
fail this link, crash that node — is a deterministic function of
``(seed, round, src, dst)`` computed by hashing those coordinates.  No
wall clock, no mutable RNG state: replaying a run with the same plan and
the same program reproduces the exact same faults, which is what makes
faulty runs debuggable and cacheable.

Fault model (what "faults" mean in a synchronous clique)
--------------------------------------------------------
The congested clique of the paper is perfectly reliable; a fault plan
relaxes that into a round-synchronous omission/corruption adversary:

* **drop** — a message queued for delivery this round vanishes.
* **corrupt** — one bit of the payload is flipped.  The payload length
  is unchanged, so a corrupted message always stays within the per-link
  bandwidth budget.
* **duplicate** — the network delivers a second, spurious copy of the
  message *one round late* (the only place "late" can mean anything in
  a lockstep model).
* **link failure** — an (unordered) link is dead for the whole run;
  every message across it, in either direction, is lost.
* **crash / crash-restart** — a node goes fail-silent: while down, all
  of its incoming and outgoing messages are lost.  Local computation is
  free and unobservable in this model, so the node's program keeps
  running; only its connectivity dies.  With ``crash_restart_rounds``
  set, a crashed node comes back after that many rounds (and may crash
  again); with ``None`` the crash is permanent.

Adversarial tier (Byzantine behaviours)
---------------------------------------
The omission/corruption faults above are honest-but-unlucky: the
network misbehaves uniformly.  The *Byzantine* tier instead corrupts a
fixed set of ``byzantine_f`` nodes (chosen by seed-keyed hash ranking,
see :meth:`FaultPlan.byzantine_nodes`) whose **outgoing** messages the
adversary rewrites at delivery time.  ``byzantine`` names the active
behaviours, ``+``-separated:

* **equivocate** — different receivers of the same round's messages see
  *different* payloads: per ``(round, src, dst)`` the payload has one
  deterministically chosen bit flipped (length-preserving, so the
  message stays within the bandwidth budget it was validated against).
* **forge** (alias ``lie``) — the message claims a forged sender: it is
  delivered into the receiver's inbox slot of another *Byzantine* node.
  Channels are authenticated in the standard model, so the adversary
  can only borrow identities it controls — colluding Byzantine nodes
  masquerade as each other, never as honest nodes.  A genuine message
  on the forged slot always wins.
* **selective** — selective delivery: each outgoing message is dropped
  for a hash-chosen subset of receivers.
* **limited** — limited broadcast: at most ``byzantine_limit`` of the
  sender's outgoing messages per round are delivered (the surviving
  destinations are chosen by hash ranking); the rest are dropped.

``equivocate``, ``forge`` and ``selective`` fire per message with
probability ``byzantine_rate``; ``limited`` is a hard per-round cap.
All decisions remain pure functions of ``(seed, round, src, dst)``, so
the reference, fast, sharded and columnar engines — and any replay —
inject byte-identical adversarial behaviour.  Byzantine *receivers*
are not modelled here: programs are honest, and what a Byzantine node
does with its inbox is an algorithm-level concern.

Faults apply to the bandwidth-checked message channel only.  The
privileged bulk channel (``Node._bulk_send``) is the cost-model router
fiction of Lemma 2 — injecting faults there would corrupt the
accounting it stands for, so it is reliable by fiat.

Engines consult the plan at delivery time through
:class:`repro.faults.inject.FaultInjector`, which adds the per-run
state (duplicate carryover, crash-window memoisation) and reports every
injected fault through the :class:`repro.obs.Observer` protocol.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Sequence

from ..clique.bits import BitString
from ..clique.errors import CliqueError

__all__ = ["BYZANTINE_BEHAVIOURS", "FaultPlan", "digest_threshold"]

#: The adversarial behaviour vocabulary of the Byzantine tier.
BYZANTINE_BEHAVIOURS = ("equivocate", "forge", "selective", "limited")

#: Accepted spellings for behaviours in ``byzantine=`` specs.
_BEHAVIOUR_ALIASES = {"lie": "forge", "equivocation": "equivocate"}

#: Rate fields of a plan, also the spelling accepted by
#: :meth:`FaultPlan.from_spec` (short aliases included).
_RATE_FIELDS = (
    "drop_rate",
    "corrupt_rate",
    "duplicate_rate",
    "link_failure_rate",
    "crash_rate",
)

_SPEC_ALIASES = {
    "drop": "drop_rate",
    "corrupt": "corrupt_rate",
    "dup": "duplicate_rate",
    "duplicate": "duplicate_rate",
    "link": "link_failure_rate",
    "crash": "crash_rate",
    "restart": "crash_restart_rounds",
    "seed": "seed",
    "byzantine": "byzantine",
    "byz": "byzantine",
    "f": "byzantine_f",
    "byz_rate": "byzantine_rate",
    "limit": "byzantine_limit",
}

#: 2**64 as a float divisor, mapping 64 hash bits onto [0, 1).
_SCALE = float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule, parameterised by per-event rates.

    All rates are probabilities in ``[0, 1]`` evaluated against a hash
    of ``(seed, kind, coordinates)``; a rate of ``0`` means the fault
    kind never fires and a plan whose rates are all zero is
    observationally identical to running with no plan at all (the
    property the zero-rate differential tests pin down).
    """

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    link_failure_rate: float = 0.0
    crash_rate: float = 0.0
    #: Rounds a crashed node stays down before its links heal;
    #: ``None`` means a crash is permanent.
    crash_restart_rounds: int | None = None
    #: Active adversarial behaviours, ``+``-separated (see module docs);
    #: ``""`` means no Byzantine tier.
    byzantine: str = ""
    #: Number of Byzantine nodes (``0`` disables the tier even when
    #: behaviours are named, which makes honest/adversarial twin runs a
    #: one-field sweep).
    byzantine_f: int = 0
    #: Per-message firing probability of equivocate/forge/selective.
    byzantine_rate: float = 0.5
    #: Outgoing messages a ``limited`` Byzantine sender may deliver per
    #: round.
    byzantine_limit: int = 1

    def __post_init__(self) -> None:
        for name in (*_RATE_FIELDS, "byzantine_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise CliqueError(f"FaultPlan.{name} must be in [0, 1], got {rate!r}")
        if self.crash_restart_rounds is not None and self.crash_restart_rounds < 1:
            raise CliqueError(
                f"crash_restart_rounds must be >= 1 (or None for permanent "
                f"crashes), got {self.crash_restart_rounds!r}"
            )
        if self.byzantine_f < 0:
            raise CliqueError(
                f"byzantine_f must be >= 0, got {self.byzantine_f!r}"
            )
        if self.byzantine_limit < 0:
            raise CliqueError(
                f"byzantine_limit must be >= 0, got {self.byzantine_limit!r}"
            )
        # Normalise the behaviour spelling once so every query is a
        # frozenset lookup; frozen dataclass, hence object.__setattr__.
        object.__setattr__(
            self, "byzantine", "+".join(self.byzantine_behaviours())
        )

    def byzantine_behaviours(self) -> tuple[str, ...]:
        """The validated, canonically-ordered behaviour tuple."""
        names = [b.strip() for b in self.byzantine.split("+") if b.strip()]
        resolved = []
        for name in names:
            canon = _BEHAVIOUR_ALIASES.get(name, name)
            if canon not in BYZANTINE_BEHAVIOURS:
                from ..clique.errors import did_you_mean

                known = sorted(set(BYZANTINE_BEHAVIOURS) | set(_BEHAVIOUR_ALIASES))
                hint = did_you_mean(name, known)
                raise CliqueError(
                    f"unknown Byzantine behaviour {name!r}; known "
                    f"behaviours: {known}{hint}"
                )
            if canon not in resolved:
                resolved.append(canon)
        return tuple(b for b in BYZANTINE_BEHAVIOURS if b in resolved)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact CLI spec like ``"drop=0.2,corrupt=0.01,seed=7"``.

        Keys are the field names or their short aliases (``drop``,
        ``corrupt``, ``dup``, ``link``, ``crash``, ``restart``, ``seed``,
        ``byzantine``/``byz``, ``f``, ``byz_rate``, ``limit``).  Unknown
        keys fail with a nearest-match suggestion, mirroring
        :func:`repro.engine.base.resolve_engine`.
        """
        from ..clique.errors import did_you_mean

        field_names = {f.name for f in fields(cls)}
        known = sorted(set(_SPEC_ALIASES) | field_names)
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            field = _SPEC_ALIASES.get(key.strip(), key.strip())
            if not sep or field not in field_names:
                hint = did_you_mean(key.strip(), known) if sep else ""
                raise CliqueError(
                    f"bad fault-plan spec entry {part!r}; expected "
                    f"key=value with key one of {known}{hint}"
                )
            try:
                if field in ("seed", "crash_restart_rounds", "byzantine_f",
                             "byzantine_limit"):
                    kwargs[field] = int(value)
                elif field == "byzantine":
                    kwargs[field] = value.strip()
                else:
                    kwargs[field] = float(value)
            except ValueError:
                raise CliqueError(f"bad fault-plan value in {part!r}") from None
        return cls(**kwargs)

    # -- introspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when no fault kind can ever fire."""
        return (
            all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)
            and not self.byzantine_active
        )

    @property
    def byzantine_active(self) -> bool:
        """True when the adversarial tier can rewrite any message."""
        return bool(self.byzantine) and self.byzantine_f > 0

    def describe(self) -> dict:
        """JSON-able configuration (cache-key material).

        Byzantine keys appear only when the tier is active, so plans
        predating the adversarial tier keep their cache keys.
        """
        desc = {"fault_plan": "hash", "seed": self.seed}
        for name in _RATE_FIELDS:
            desc[name] = getattr(self, name)
        desc["crash_restart_rounds"] = self.crash_restart_rounds
        if self.byzantine_active:
            desc["byzantine"] = self.byzantine
            desc["byzantine_f"] = self.byzantine_f
            desc["byzantine_rate"] = self.byzantine_rate
            desc["byzantine_limit"] = self.byzantine_limit
        return desc

    # -- the hash oracle -------------------------------------------------

    def _u01(self, kind: str, *coords: int) -> float:
        """A uniform draw in [0, 1), pure in ``(seed, kind, coords)``."""
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.seed).encode())
        h.update(b"\x00" + kind.encode())
        for c in coords:
            h.update(b"\x00" + str(c).encode())
        return int.from_bytes(h.digest(), "big") / _SCALE

    def _prefix(self, kind: str, *coords: int):
        """The :meth:`_u01` hash state keyed up to one last coordinate.

        ``_prefix(kind, *coords)`` updated with ``str(c).encode()`` digests
        exactly like ``_u01(kind, *coords, c)`` (blake2b is streaming), so
        a batch of draws that differ only in their last coordinate shares
        one keyed state and pays one ``copy`` per draw.
        """
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.seed).encode())
        h.update(b"\x00" + kind.encode())
        for c in coords:
            h.update(b"\x00" + str(c).encode())
        h.update(b"\x00")
        return h

    # -- per-link / per-node schedule ------------------------------------

    def link_down(self, src: int, dst: int) -> bool:
        """Whether the (unordered) link ``{src, dst}`` is dead all run."""
        if self.link_failure_rate == 0.0:
            return False
        a, b = (src, dst) if src <= dst else (dst, src)
        return self._u01("link", a, b) < self.link_failure_rate

    def crashes_at(self, round: int, node: int) -> bool:
        """Whether ``node`` suffers a crash *trigger* in ``round``."""
        if self.crash_rate == 0.0:
            return False
        return self._u01("crash", round, node) < self.crash_rate

    def node_down(self, round: int, node: int) -> bool:
        """Whether ``node`` is down (fail-silent) during ``round``.

        A node is down in round ``r`` iff some crash trigger fired in a
        round ``r0 <= r`` that has not healed yet: permanently when
        ``crash_restart_rounds`` is ``None``, else while
        ``r < r0 + crash_restart_rounds``.  Pure but O(round) — the
        injector memoises per-run.
        """
        if self.crash_rate == 0.0:
            return False
        if self.crash_restart_rounds is None:
            first = 1
        else:
            first = max(1, round - self.crash_restart_rounds + 1)
        return any(self.crashes_at(r0, node) for r0 in range(first, round + 1))

    # -- per-message decisions -------------------------------------------

    def drops(self, round: int, src: int, dst: int) -> bool:
        """Whether the message ``src -> dst`` of ``round`` is dropped."""
        return (
            self.drop_rate > 0.0
            and self._u01("drop", round, src, dst) < self.drop_rate
        )

    def corrupts(self, round: int, src: int, dst: int) -> bool:
        """Whether the message ``src -> dst`` of ``round`` is corrupted."""
        return (
            self.corrupt_rate > 0.0
            and self._u01("corrupt", round, src, dst) < self.corrupt_rate
        )

    def duplicates(self, round: int, src: int, dst: int) -> bool:
        """Whether a spurious copy is redelivered one round late."""
        return (
            self.duplicate_rate > 0.0
            and self._u01("dup", round, src, dst) < self.duplicate_rate
        )

    def corrupt_payload(
        self, round: int, src: int, dst: int, payload: BitString
    ) -> BitString:
        """Flip one deterministically chosen bit of ``payload``.

        Length-preserving, so the corrupted message still fits the
        per-link bandwidth budget it was validated against.
        """
        n_bits = len(payload)
        if n_bits == 0:
            return payload
        index = int(self._u01("corrupt-bit", round, src, dst) * n_bits)
        index = min(index, n_bits - 1)
        mask = 1 << (n_bits - 1 - index)
        return BitString(payload.value ^ mask, n_bits)

    # -- the adversarial tier --------------------------------------------

    def byzantine_nodes(self, n: int) -> frozenset[int]:
        """The fixed Byzantine set for an ``n``-node run.

        The ``byzantine_f`` nodes with the smallest seed-keyed hash rank
        (ties broken by node id), so the set is pure in ``(seed, n)`` and
        identical across engines.  Capped at ``n`` when ``f > n``.
        """
        if not self.byzantine_active or n <= 0:
            return frozenset()
        ranked = sorted(range(n), key=lambda v: (self._u01("byz-node", v), v))
        return frozenset(ranked[: min(self.byzantine_f, n)])

    def byz_selective_drops(self, round: int, src: int, dst: int) -> bool:
        """Selective delivery: drop ``src -> dst`` for this receiver?"""
        return self._u01("byz-select", round, src, dst) < self.byzantine_rate

    def byz_limited_reachable(self, round: int, src: int, n: int) -> frozenset[int]:
        """Limited broadcast: the receivers ``src`` can reach this round.

        The ``byzantine_limit`` receivers with the smallest
        per-``(round, src, dst)`` hash rank (ties by id) out of all
        ``n - 1`` possible destinations.  Pure in the coordinates alone —
        no engine needs to assemble the sender's actual destination
        list, so per-message delivery order cannot matter.
        """
        others = [d for d in range(n) if d != src]
        if self.byzantine_limit >= len(others):
            return frozenset(others)
        ranked = sorted(
            others, key=lambda d: (self._u01("byz-limit", round, src, d), d)
        )
        return frozenset(ranked[: self.byzantine_limit])

    def byz_equivocates(self, round: int, src: int, dst: int) -> bool:
        """Equivocation: does this receiver see a rewritten payload?"""
        return self._u01("byz-equiv", round, src, dst) < self.byzantine_rate

    def equivocate_payload(
        self, round: int, src: int, dst: int, payload: BitString
    ) -> BitString:
        """The equivocated payload: one hash-chosen bit flipped.

        Length-preserving (stays within the validated bandwidth budget)
        and keyed by ``dst``, so different receivers of the same round's
        broadcast see *different* values — the defining equivocation.
        """
        n_bits = len(payload)
        if n_bits == 0:
            return payload
        index = int(self._u01("byz-equiv-bit", round, src, dst) * n_bits)
        index = min(index, n_bits - 1)
        mask = 1 << (n_bits - 1 - index)
        return BitString(payload.value ^ mask, n_bits)

    def byz_forges(self, round: int, src: int, dst: int) -> bool:
        """Lying sender: does this message claim a forged ``src``?"""
        return self._u01("byz-forge", round, src, dst) < self.byzantine_rate

    def forged_src(
        self, round: int, src: int, dst: int, byzantine: Sequence[int]
    ) -> int | None:
        """The identity a forged message claims, or ``None`` for no-op.

        Channels are authenticated, so candidates are the *other*
        Byzantine nodes (excluding the receiver — a node never hears a
        message "from itself").  With no candidate the forge is a no-op
        and the message passes through genuinely.  ``byzantine`` is the
        Byzantine set in ascending order (the injector sorts it once per
        run).
        """
        candidates = [b for b in byzantine if b != src and b != dst]
        if not candidates:
            return None
        pick = int(self._u01("byz-forge-src", round, src, dst) * len(candidates))
        return candidates[min(pick, len(candidates) - 1)]

    def __repr__(self) -> str:
        active = {
            name: getattr(self, name)
            for name in _RATE_FIELDS
            if getattr(self, name)
        }
        extra = (
            f", restart={self.crash_restart_rounds}"
            if self.crash_restart_rounds is not None
            else ""
        )
        if self.byzantine_active:
            extra += f", byzantine={self.byzantine!r}, f={self.byzantine_f}"
        return f"FaultPlan(seed={self.seed}, {active or 'zero-rate'}{extra})"


def digest_threshold(rate: float) -> bytes:
    """The 8-byte digest bound of the decision ``_u01(...) < rate``.

    ``_u01`` maps a digest ``x`` to ``float(x) / 2**64``, which is
    monotone in ``x``, so the digests that fire form a prefix
    ``[0, T)``.  ``T`` is found by bisection over the very same
    expression, which makes ``digest < T.to_bytes(8, "big")`` (a
    same-length bytes comparison is a big-endian integer comparison)
    bit-identical to the float test — rounding included: at
    ``rate == 1.0`` the digests ``>= 2**64 - 1024`` round to exactly
    ``1.0`` and do not fire.
    """
    lo, hi = 0, 1 << 64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / _SCALE >= rate:
            hi = mid
        else:
            lo = mid + 1
    # rate <= 1.0 keeps lo <= 2**64 - 1024, so it always fits 8 bytes.
    return lo.to_bytes(8, "big")
