"""Shard boundary plumbing: ``shard_ranges`` partition properties and
``ShardTransport`` round-trips — plain objects, and out-of-band buffers
for the array shapes the sharded columnar engine actually ships
(non-contiguous slices, zero-length columns, >64-bit element widths)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clique.errors import CliqueError
from repro.engine.shards import ShardTransport, shard_ranges


class TestShardRangesProperties:
    @given(
        n=st.integers(min_value=1, max_value=500),
        shards=st.integers(min_value=1, max_value=600),
    )
    def test_ranges_partition_exactly_in_order(self, n, shards):
        ranges = shard_ranges(n, shards)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        covered = [v for lo, hi in ranges for v in range(lo, hi)]
        assert covered == list(range(n))

    @given(n=st.integers(min_value=1, max_value=500), data=st.data())
    def test_no_empty_shard_when_shards_at_most_n(self, n, data):
        shards = data.draw(st.integers(min_value=1, max_value=n))
        ranges = shard_ranges(n, shards)
        assert len(ranges) == shards
        assert all(hi > lo for lo, hi in ranges)

    @given(
        n=st.integers(min_value=1, max_value=200),
        excess=st.integers(min_value=1, max_value=400),
    )
    def test_more_shards_than_nodes_degrades_to_n_singletons(self, n, excess):
        ranges = shard_ranges(n, n + excess)
        assert ranges == [(v, v + 1) for v in range(n)]

    @given(
        n=st.integers(min_value=1, max_value=500),
        shards=st.integers(min_value=1, max_value=600),
    )
    def test_balanced_within_one(self, n, shards):
        sizes = [hi - lo for lo, hi in shard_ranges(n, shards)]
        assert max(sizes) - min(sizes) <= 1

    @given(shards=st.integers(max_value=0))
    def test_fewer_than_one_shard_rejected(self, shards):
        with pytest.raises(CliqueError, match="at least one shard"):
            shard_ranges(8, shards)

    def test_shard_ranges_partition(self):
        for n, shards in ((10, 3), (7, 7), (5, 16), (1, 1)):
            ranges = shard_ranges(n, shards)
            covered = [v for lo, hi in ranges for v in range(lo, hi)]
            assert covered == list(range(n))
        with pytest.raises(CliqueError, match="at least one shard"):
            shard_ranges(4, 0)


def _assert_array_roundtrip(arr):
    body, buffers = ShardTransport.encode(arr)
    assert all(isinstance(b, bytes) for b in buffers)
    out = ShardTransport.decode(body, buffers)
    assert out.dtype == arr.dtype
    assert out.shape == arr.shape
    np.testing.assert_array_equal(out, arr)
    return out


class TestShardTransportBuffers:
    def test_plain_objects_roundtrip(self):
        obj = {"a": [1, 2, 3], "b": ("x", None)}
        assert ShardTransport.roundtrip(obj) == obj

    def test_contiguous_array_ships_out_of_band(self):
        arr = np.arange(4096, dtype=np.uint64)
        body, buffers = ShardTransport.encode(arr)
        # The payload crosses as a raw out-of-band buffer, not inside
        # the pickle body.
        assert buffers
        assert sum(len(b) for b in buffers) >= arr.nbytes
        assert len(body) < arr.nbytes
        np.testing.assert_array_equal(
            ShardTransport.decode(body, buffers), arr
        )

    def test_numpy_payloads_travel_out_of_band(self):
        arr = np.arange(1024, dtype=np.int64)
        body, buffers = ShardTransport.encode(arr)
        assert buffers, "large arrays should use out-of-band buffers"
        restored = ShardTransport.decode(body, buffers)
        assert np.array_equal(restored, arr)

    def test_non_contiguous_view_roundtrips(self):
        base = np.arange(1000, dtype=np.uint64)
        for view in (base[::2], base[::-1], base[7:901:3]):
            assert not view.flags["C_CONTIGUOUS"] or view is base
            _assert_array_roundtrip(view)

    def test_non_contiguous_2d_slice_roundtrips(self):
        base = np.arange(30 * 17, dtype=np.int64).reshape(30, 17)
        view = base[::3, 1::2]
        assert not view.flags["C_CONTIGUOUS"]
        _assert_array_roundtrip(view)

    def test_zero_length_arrays_roundtrip(self):
        for dtype in (np.int64, np.uint64, np.float64, np.complex128):
            out = _assert_array_roundtrip(np.empty(0, dtype=dtype))
            assert out.size == 0

    def test_wider_than_64_bit_elements_roundtrip(self):
        # complex128: 128-bit elements.
        rng = np.random.default_rng(7)
        _assert_array_roundtrip(
            rng.standard_normal(257) + 1j * rng.standard_normal(257)
        )
        # Structured dtype: 160-bit records.
        rec = np.zeros(
            13, dtype=[("src", np.int64), ("val", np.uint64), ("w", np.int32)]
        )
        rec["src"] = np.arange(13)
        rec["val"] = np.arange(13, dtype=np.uint64) * np.uint64(3)
        rec["w"] = 17
        out = ShardTransport.roundtrip(rec)
        assert out.dtype == rec.dtype
        np.testing.assert_array_equal(out, rec)

    def test_message_slice_tuple_roundtrips(self):
        # The actual per-round payload shape: COO columns plus bulk list.
        us = np.arange(100, dtype=np.int64)
        ud = (us + 1) % 8
        uv = us.astype(np.uint64) * np.uint64(0x9E3779B1)
        uw = np.full(100, 48, dtype=np.int64)
        owned = (ud >= 2) & (ud < 5)  # a boolean-mask slice, like routing
        payload = (
            3,
            (us[owned], ud[owned], uv[owned], uw[owned]),
            [(0, 3, 123456789, 80)],
        )
        round_no, coo, bulk = ShardTransport.roundtrip(payload)
        assert round_no == 3
        assert bulk == [(0, 3, 123456789, 80)]
        for sent, got in zip((us[owned], ud[owned], uv[owned], uw[owned]), coo):
            np.testing.assert_array_equal(sent, got)
