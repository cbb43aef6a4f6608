"""Distributed sorting in the congested clique.

Lenzen [43] shows that sorting ``n^2`` keys of ``O(log n)`` bits (n keys
per node) takes ``O(1)`` rounds deterministically.  We implement the
classical *parallel sorting by regular sampling* (PSRS) scheme on top of
:func:`repro.clique.routing.route`:

1. each node sorts its keys locally (free local computation),
2. every node publishes ``n`` evenly spaced samples (all-broadcast),
3. global splitters are the every-``n``-th order statistics of the
   ``n^2`` samples; keys are routed to their splitter bucket,
4. bucket owners merge, bucket sizes are all-gathered, and keys are
   re-routed to their exact global-rank owner, so node ``i`` ends with
   the ranks ``[i*q, (i+1)*q)`` where ``q`` is its quota.

The sample publication costs ``ceil(n * key_width / B)`` rounds, which is
``O(n)`` — asymptotically weaker than Lenzen's ``O(1)`` sorting circuit
(a substitution documented in DESIGN.md); the data movement itself is
balanced and costs ``O(max_load / (nB) + 1)`` rounds via :func:`route`.
"""

from __future__ import annotations

import bisect
from typing import Generator

from .bits import BitReader, BitString, BitWriter
from .errors import ProtocolViolation
from .node import Node
from .primitives import all_broadcast_concat, all_gather_uint
from .routing import route

__all__ = ["distributed_sort"]


def _pack_keys(keys: list[int], width: int) -> BitString:
    w = BitWriter()
    w.write_uint(len(keys), 32)
    if keys:
        w.write_uints(keys, width)
    return w.finish()


def _unpack_keys(bits: BitString, width: int) -> list[int]:
    r = BitReader(bits)
    count = r.read_uint(32)
    return r.read_uints(count, width)


def distributed_sort(
    node: Node,
    keys: list[int],
    key_width: int,
    scheme: str = "lenzen",
) -> Generator[None, None, list[int]]:
    """Sort the union of all nodes' keys; node ``i`` returns the ``i``-th
    contiguous slice of the global sorted order.

    Every key must be an unsigned ``key_width``-bit integer.  Quotas are
    ``ceil(total / n)`` for the first nodes and the remainder for the
    last.  Duplicate keys are fine (ranks are assigned stably).
    """
    n = node.n
    for k in keys:
        if k < 0 or k.bit_length() > key_width:
            raise ProtocolViolation(
                f"key {k} does not fit in {key_width} bits"
            )
    local = sorted(keys)

    if n == 1:
        return local

    # Step 2: publish n evenly spaced samples (pad with the max value so
    # every node contributes exactly n samples and lengths agree).
    pad = (1 << key_width) - 1
    if local:
        step = max(1, len(local) // n)
        samples = [local[min(i * step, len(local) - 1)] for i in range(n)]
    else:
        samples = [pad] * n
    sample_payload = BitWriter().write_uints(samples, key_width).finish()
    all_samples_bits = yield from all_broadcast_concat(node, sample_payload)
    all_samples = sorted(BitReader(all_samples_bits).read_uints(n * n, key_width))
    # n-1 splitters: every n-th order statistic.
    splitters = [all_samples[(j + 1) * n - 1] for j in range(n - 1)]

    # Step 3: route keys to their splitter bucket (bucket j owns keys in
    # (splitters[j-1], splitters[j]]; ties go to the lower bucket).
    buckets: dict[int, list[int]] = {j: [] for j in range(n)}
    for k in local:
        j = bisect.bisect_left(splitters, k)
        buckets[j].append(k)
    flows = {
        j: _pack_keys(ks, key_width) for j, ks in buckets.items() if ks
    }
    received = yield from route(node, flows, scheme=scheme)
    merged = sorted(
        k for bits in received.values() for k in _unpack_keys(bits, key_width)
    )

    # Step 4: all-gather bucket sizes, compute exact global ranks, and
    # re-route each key to its rank owner.
    sizes = yield from all_gather_uint(node, len(merged), 32)
    total = sum(sizes)
    my_offset = sum(sizes[: node.id])
    quota = -(-total // n)  # ceil

    rank_flows: dict[int, list[int]] = {}
    for pos, k in enumerate(merged):
        rank = my_offset + pos
        owner = min(rank // quota, n - 1) if quota > 0 else 0
        rank_flows.setdefault(owner, []).append(k)
    flows2 = {
        d: _pack_keys(ks, key_width) for d, ks in rank_flows.items() if ks
    }
    received2 = yield from route(node, flows2, scheme=scheme)
    final = sorted(
        k
        for bits in received2.values()
        for k in _unpack_keys(bits, key_width)
    )
    return final
