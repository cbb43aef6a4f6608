"""Batched fault decisions against the scalar oracle.

``FaultInjector.deliver_row`` decides a whole sender row from keyed hash
prefixes and an 8-byte digest threshold; the scalar ``FaultPlan._u01``
and ``FaultInjector.deliver`` stay the executable semantics.  These
properties pin the two together bit for bit.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique.bits import BitString
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import digest_threshold
from repro.obs import Observer

#: Every decision kind the plan hashes.
KINDS = (
    "drop",
    "corrupt",
    "dup",
    "corrupt-bit",
    "link",
    "crash",
    "byz-node",
    "byz-select",
    "byz-limit",
    "byz-equiv",
    "byz-equiv-bit",
    "byz-forge",
    "byz-forge-src",
)
EDGE_RATES = (0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0)
SCALE = float(1 << 64)

rates = st.one_of(st.sampled_from(EDGE_RATES), st.floats(0.0, 1.0))


class TestThreshold:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(-(10**12), 10**12),
        kind=st.sampled_from(KINDS),
        coords=st.lists(st.integers(0, 10**9), min_size=1, max_size=3),
        rate=rates,
    )
    def test_prefix_and_threshold_equal_the_scalar_draw(
        self, seed, kind, coords, rate
    ):
        plan = FaultPlan(seed=seed)
        h = plan._prefix(kind, *coords[:-1])
        h.update(str(coords[-1]).encode())
        batched = h.digest() < digest_threshold(rate)
        assert batched == (plan._u01(kind, *coords) < rate)

    @settings(max_examples=300, deadline=None)
    @given(digest=st.integers(0, (1 << 64) - 1), rate=rates)
    def test_threshold_equals_the_float_map_on_any_digest(self, digest, rate):
        batched = digest.to_bytes(8, "big") < digest_threshold(rate)
        assert batched == (digest / SCALE < rate)

    @pytest.mark.parametrize("rate", EDGE_RATES)
    def test_threshold_at_its_boundary(self, rate):
        bound = int.from_bytes(digest_threshold(rate), "big")
        for digest in (bound - 1, bound, bound + 1, (1 << 64) - 1):
            if 0 <= digest < 1 << 64:
                batched = digest.to_bytes(8, "big") < digest_threshold(rate)
                assert batched == (digest / SCALE < rate)

    def test_rate_one_keeps_the_digests_that_round_to_one(self):
        # float(x) / 2**64 is exactly 1.0 for x >= 2**64 - 1024, so the
        # scalar test keeps those messages; the threshold must as well.
        bound = int.from_bytes(digest_threshold(1.0), "big")
        assert bound == (1 << 64) - 1024
        assert ((1 << 64) - 1024) / SCALE == 1.0
        assert ((1 << 64) - 1025) / SCALE < 1.0

    def test_zero_rate_never_fires(self):
        assert digest_threshold(0.0) == bytes(8)


class Recorder(Observer):
    """Collects every fault event."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_fault(self, *, round, src, dst, kind, bits) -> None:
        self.events.append((round, src, dst, kind, bits))


plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 10**6),
    drop_rate=rates,
    corrupt_rate=rates,
    duplicate_rate=rates,
    link_failure_rate=st.sampled_from((0.0, 0.1, 0.3)),
    crash_rate=st.sampled_from((0.0, 0.05, 0.2)),
    crash_restart_rounds=st.sampled_from((None, 1, 2)),
    byzantine=st.sampled_from(
        ("", "equivocate", "forge", "selective", "limited",
         "equivocate+forge+selective+limited")
    ),
    byzantine_f=st.integers(0, 4),
    byzantine_rate=rates,
    byzantine_limit=st.integers(0, 5),
)


class TestRowEqualsScalar:
    @settings(max_examples=150, deadline=None)
    @given(plan=plans, n=st.integers(2, 11), rounds=st.integers(1, 4), data=st.data())
    def test_batched_row_matches_per_message_deliver(self, plan, n, rounds, data):
        batched_obs, scalar_obs = Recorder(), Recorder()
        batched = FaultInjector(plan, n, batched_obs)
        scalar = FaultInjector(plan, n, scalar_obs)
        for r in range(1, rounds + 1):
            for src in range(n):
                others = [d for d in range(n) if d != src]
                if data.draw(st.booleans(), label="broadcast row"):
                    # A broadcast: one shared payload and width.
                    dsts = others
                    shared = BitString((src * 7 + r) % 16, 4)
                    payloads = [shared] * len(dsts)
                    width = 4
                else:
                    # A unicast run: any destinations, any order, repeats
                    # allowed (lax checks), one payload per message.
                    dsts = data.draw(
                        st.lists(st.sampled_from(others), max_size=2 * n),
                        label="unicast row",
                    )
                    widths = [1 + (d + i) % 6 for i, d in enumerate(dsts)]
                    payloads = [
                        BitString((src * 31 + d * 7 + i) % (1 << w), w)
                        for i, (d, w) in enumerate(zip(dsts, widths))
                    ]
                    width = widths
                fates = batched.deliver_row(
                    r, src, dsts, width, payloads.__getitem__
                )
                got = [p if f is True else f for p, f in zip(payloads, fates)]
                want = [scalar.deliver(r, src, d, p) for d, p in zip(dsts, payloads)]
                assert got == want
            assert batched._pending == scalar._pending
            assert batched.take_forged() == scalar.take_forged()
            assert not batched._limit_memo
        assert Counter(batched_obs.events) == Counter(scalar_obs.events)


class TestRoundState:
    def test_limited_memo_is_dropped_every_round(self):
        plan = FaultPlan(seed=3, byzantine="limited", byzantine_f=2, byzantine_limit=2)
        injector = FaultInjector(plan, 8)
        src = min(injector.byzantine)
        for r in range(1, 30):
            for dst in range(8):
                if dst != src:
                    injector.deliver(r, src, dst, BitString(1, 1))
            assert len(injector._limit_memo) == 1
            injector.finish_round(r, [{} for _ in range(8)], [0] * 8)
            assert not injector._limit_memo

    def test_forged_src_takes_the_sorted_byzantine_order(self):
        plan = FaultPlan(seed=5, byzantine="forge", byzantine_f=4, byzantine_rate=1.0)
        injector = FaultInjector(plan, 12)
        assert list(injector._byz_order) == sorted(injector.byzantine)
        src = injector._byz_order[0]
        for dst in range(12):
            if dst == src:
                continue
            forged = plan.forged_src(1, src, dst, injector._byz_order)
            assert forged in injector.byzantine - {src, dst}
