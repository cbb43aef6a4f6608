"""Explicit message-by-message delivery for the non-reference engines.

The fast engine delivers a round message by message whenever something
needs to see each message: a fault plan, a transcript, a per-message
observer or its ``shuffle_seed`` permutation.  The columnar engine does
so in array form for the same reasons (bar the shuffle).  The reference
engine keeps its own scalar loop over
:meth:`~repro.faults.FaultInjector.deliver` as the executable
semantics, so the differential gates compare both forms here against an
independent implementation.

:func:`deliver_rows` is the fast engine's form.  A round reaches it as
**sender rows** ``(src, kind, dsts, payloads)``: one broadcast
(``payloads`` is the shared payload), a run of consecutive unicasts or
bulk sends of one sender (``payloads`` is a list aligned with
``dsts``).  :func:`deliver_columns` is the columnar engine's one
explicit path: the same rows, as slices of the expanded ``(src, dst)``
columns, with the decisions applied as a keep mask.  In both, fault
decisions are made a row at a time through
:meth:`~repro.faults.FaultInjector.deliver_row`, bit-identical to the
scalar per-message checks, and the semantics are those of the
reference engine:

* duplicates scheduled for the round land first, so a genuine message
  on the same link wins the inbox slot;
* the sender is charged for every queued message, the receiver only for
  messages that arrive; the bulk channel is exempt from faults;
* forged-identity messages land last, into slots no genuine delivery
  (bulk included) claimed, in sorted order — independent of the
  delivery order.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Sequence

import numpy as np

from ..clique.bits import BitString

__all__ = [
    "BROADCAST",
    "deliver_columns",
    "deliver_rows",
    "drain_entries",
    "sender_rows",
]

#: Flat-outbox destination marker for a broadcast entry.
BROADCAST = -1


def drain_entries(
    nodes: Iterable[tuple[int, Any]],
) -> list[tuple[int, int, Any, bool]]:
    """Collect the queued messages of ``(id, node)`` pairs in delivery order.

    Per node (in the given order), first the flat outbox in queue order,
    then the bulk channel, as ``(src, dst, payload, is_bulk)`` entries
    (``dst == BROADCAST`` marks an unexpanded broadcast).  Empties the
    outboxes.
    """
    entries: list[tuple[int, int, Any, bool]] = []
    for v, node in nodes:
        if node._flat_out:
            for dst, payload in node._flat_out:
                entries.append((v, dst, payload, False))
            node._flat_out = []
        if node._flat_bulk:
            for dst, payload in node._flat_bulk:
                entries.append((v, dst, payload, True))
            node._flat_bulk = []
    return entries


def sender_rows(
    entries: Iterable[tuple[int, int, Any, bool]], n: int, sent_bits: list[int]
) -> tuple[list[tuple], tuple[int, int, int, int, int]]:
    """Group drained entries into sender rows and charge their senders.

    A broadcast becomes one row over every other node; consecutive
    unicasts (or bulk sends) of one sender share a row.  Returns the
    rows and the round's ``(message_bits, bulk_bits, unicast_messages,
    broadcast_messages, bulk_messages)``, broadcasts counted per
    recipient.
    """
    rows: list[tuple] = []
    msg_bits = bulk_bits = unicast = broadcast = bulk = 0
    run: tuple | None = None
    for src, dst, payload, is_bulk in entries:
        plen = len(payload)
        if dst == BROADCAST and not is_bulk:
            others = [u for u in range(n) if u != src]
            rows.append((src, "broadcast", others, payload))
            run = None
            fanned = plen * (n - 1)
            sent_bits[src] += fanned
            msg_bits += fanned
            broadcast += n - 1
            continue
        kind = "bulk" if is_bulk else "unicast"
        if run is not None and run[0] == src and run[1] == kind:
            run[2].append(dst)
            run[3].append(payload)
        else:
            run = (src, kind, [dst], [payload])
            rows.append(run)
        sent_bits[src] += plen
        if is_bulk:
            bulk_bits += plen
            bulk += 1
        else:
            msg_bits += plen
            unicast += 1
    return rows, (msg_bits, bulk_bits, unicast, broadcast, bulk)


def deliver_rows(
    this_round: int,
    rows: Sequence[tuple],
    inboxes: list[dict[int, BitString]],
    received_bits: Any,
    *,
    injector: Any = None,
    sent_records: list[dict[int, BitString]] | None = None,
    obs: Any = None,
    rng: random.Random | None = None,
) -> None:
    """Deliver one round's sender rows into per-node dict inboxes.

    ``received_bits`` is charged per arriving message, ``sent_records``
    (when given) records every queued payload, ``obs`` (when given)
    gets one ``on_message`` per arrival.  ``rng`` permutes the delivery
    order message by message (the fast engine's ``shuffle_seed``).
    """
    if rng is not None:
        flat = []
        for src, kind, dsts, payloads in rows:
            shared = kind == "broadcast"
            for i, dst in enumerate(dsts):
                flat.append(
                    (src, kind, (dst,), payloads if shared else [payloads[i]])
                )
        rng.shuffle(flat)
        rows = flat
    if injector is not None:
        injector.inject_pending(this_round, inboxes, received_bits)
    for src, kind, dsts, payloads in rows:
        m = len(dsts)
        if kind == "broadcast":
            width = len(payloads)
            lens = [width] * m
            payloads = [payloads] * m
        else:
            lens = [len(p) for p in payloads]
            width = lens
        if sent_records is not None:
            sent_records[src].update(zip(dsts, payloads))
        if injector is None or kind == "bulk":
            fates = [True] * m
        else:
            fates = injector.deliver_row(
                this_round, src, dsts, width, payloads.__getitem__
            )
        for dst, payload, plen, fate in zip(dsts, payloads, lens, fates):
            if fate is None:
                continue
            received_bits[dst] += plen
            inboxes[dst][src] = payload if fate is True else fate
            if obs is not None:
                obs.on_message(
                    round=this_round, src=src, dst=dst, bits=plen, kind=kind
                )
    if injector is not None:
        injector.finish_round(this_round, inboxes, received_bits)


def deliver_columns(
    injector: Any,
    this_round: int,
    n: int,
    bcast: tuple[np.ndarray, np.ndarray, np.ndarray],
    unicast: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    bulk: Any,
    received: np.ndarray,
    obs: Any = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Explicit delivery of validated columnar traffic, kept in array form.

    ``bcast`` is ``(senders, values, widths)``, ``unicast`` is ``(src,
    dst, values, widths)`` and ``bulk`` the round's
    :class:`~repro.engine.columnar.BulkBatch`, which is delivered
    outside the returned columns and only reserves its slots from
    forged messages here.  Broadcasts are expanded to
    ``(src, dst)`` columns in emission order, followed by the unicast
    columns; with an ``injector`` each sender row is decided by
    :meth:`~repro.faults.FaultInjector.deliver_row`, and the decisions
    become a keep mask (plus value overrides for rewritten payloads).
    A ``BitString`` is built only for a message a fault rewrites or
    buffers.  ``obs`` (when given) gets one ``on_message`` per arrival:
    pending duplicates, each sender row's arrivals right after its
    fault decisions, the bulk messages, then forged messages as they
    land.  Returns the inbox
    ``(src, dst, value, width)`` columns: per destination, pending
    duplicates, then genuine arrivals in emission order, then forged
    messages.  ``received`` is charged per arrival.
    """
    bs, bv, bw = bcast
    us, ud, uv, uw = unicast
    rows = n - 1
    if bs.size and rows:
        src = np.concatenate([np.repeat(bs, rows), us])
        dst = np.tile(np.arange(rows, dtype=bs.dtype), bs.size)
        dst += dst >= src[: dst.size]
        dst = np.concatenate([dst, ud])
        val = np.concatenate([np.repeat(bv, rows), uv])
        wid = np.concatenate([np.repeat(bw, rows), uw])
        starts = list(range(0, bs.size * rows, rows))
    else:
        src, dst, val, wid = us, ud, uv.copy(), uw
        starts = []
    offset = len(starts) * rows
    pending = injector.pop_pending(this_round) if injector is not None else []
    if obs is not None:
        for s, d, payload in pending:
            obs.on_message(
                round=this_round, src=s, dst=d, bits=len(payload), kind="duplicate"
            )
    if injector is not None or obs is not None:
        if us.size:
            breaks = np.flatnonzero(us[1:] != us[:-1]) + 1 + offset
            starts += [offset, *breaks.tolist()]
        keep = np.ones(src.size, dtype=bool)
        dst_list = dst.tolist()
        src_list = src.tolist()
        wid_list = wid.tolist()
        bounds = starts + [src.size]
        for start, stop in zip(bounds, bounds[1:]):
            s = src_list[start]
            dsts = dst_list[start:stop]
            shared = start < offset
            widths = wid_list[start] if shared else wid_list[start:stop]
            if injector is None:
                fates = [True] * len(dsts)
            else:
                fates = injector.deliver_row(
                    this_round,
                    s,
                    dsts,
                    widths,
                    lambda i, base=start: BitString(
                        int(val[base + i]), wid_list[base + i]
                    ),
                )
                for i, fate in enumerate(fates):
                    if fate is None:
                        keep[start + i] = False
                    elif fate is not True:
                        val[start + i] = fate.value
            if obs is not None:
                kind = "broadcast" if shared else "unicast"
                bits = [widths] * len(dsts) if shared else widths
                for d, w, fate in zip(dsts, bits, fates):
                    if fate is not None:
                        obs.on_message(
                            round=this_round, src=s, dst=d, bits=w, kind=kind
                        )
        if obs is not None:
            for s, d, w in zip(
                bulk.src.tolist(), bulk.dst.tolist(), bulk.nbits.tolist()
            ):
                obs.on_message(round=this_round, src=s, dst=d, bits=w, kind="bulk")
        if injector is not None:
            src, dst, val, wid = src[keep], dst[keep], val[keep], wid[keep]
    forged = injector.take_forged() if injector is not None else []
    if dst.size:
        np.add.at(received, dst, wid)
    keys = np.sort(dst * n + src)
    if not pending and not forged and not (keys[1:] == keys[:-1]).any():
        order = np.argsort(dst, kind="stable")
        return src[order], dst[order], val[order], wid[order]
    # Slot collisions (lax checks, duplicates meeting a resend, forged
    # identities): apply the dict semantics of deliver_rows directly.
    inboxes: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    for s, d, payload in pending:
        inboxes[d][s] = (payload.value, len(payload))
        received[d] += len(payload)
    for s, d, v, w in zip(
        src.tolist(), dst.tolist(), val.tolist(), wid.tolist()
    ):
        inboxes[d][s] = (v, w)
    if forged:
        taken = set(zip(bulk.src.tolist(), bulk.dst.tolist()))
        for s, d, _real, payload in forged:
            if s in inboxes[d] or (s, d) in taken:
                continue
            inboxes[d][s] = (payload.value, len(payload))
            received[d] += len(payload)
            if obs is not None:
                obs.on_message(
                    round=this_round, src=s, dst=d, bits=len(payload), kind="forged"
                )
    return inbox_columns(inboxes)


def inbox_columns(
    inboxes: Sequence[dict[int, tuple[int, int]]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-destination ``{src: (value, width)}`` inboxes as ``(src, dst,
    value, width)`` columns, by destination, then insertion order."""
    items = [(s, d, *item) for d, box in enumerate(inboxes) for s, item in box.items()]
    src, dst, val, wid = zip(*items) if items else ((), (), (), ())
    return (
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.array(val, dtype=np.uint64),
        np.array(wid, dtype=np.int64),
    )
