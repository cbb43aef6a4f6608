"""Tests for shared algorithm helpers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.common import (
    decode_bool_row,
    decode_bool_rows,
    dolev_layout,
    encode_bool_row,
    group_of,
    group_partition,
    int_ceil_root,
    label_union,
    node_label,
)
from repro.clique.bits import BitString
from repro.clique.errors import CliqueError, EncodingError


class TestIntCeilRoot:
    @pytest.mark.parametrize(
        "n,k,want", [(8, 3, 2), (27, 3, 3), (26, 3, 2), (64, 3, 4), (16, 2, 4), (1, 5, 1), (100, 2, 10)]
    )
    def test_values(self, n, k, want):
        assert int_ceil_root(n, k) == want

    @given(st.integers(1, 10**6), st.integers(1, 6))
    def test_defining_property(self, n, k):
        g = int_ceil_root(n, k)
        assert g**k <= n < (g + 1) ** k

    def test_zero(self):
        assert int_ceil_root(0, 3) == 0

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(CliqueError, match="needs k >= 1"):
            int_ceil_root(8, k)


class TestGroupPartition:
    @given(st.integers(1, 100), st.integers(1, 10))
    def test_partition_covers(self, n, g):
        groups = group_partition(n, g)
        assert len(groups) == g
        flat = [v for grp in groups for v in grp]
        assert sorted(flat) == list(range(n))

    @given(st.integers(1, 100), st.integers(1, 10))
    def test_group_of_consistent(self, n, g):
        groups = group_partition(n, g)
        for j, grp in enumerate(groups):
            for v in grp:
                assert group_of(v, n, g) == j

    def test_sizes_balanced(self):
        groups = group_partition(10, 3)
        assert [len(g) for g in groups] == [4, 4, 2]


class TestNodeLabel:
    def test_all_labels_occur(self):
        """Every label in [g]^k is assigned to some node when g^k <= n
        (required by Theorem 9's step 2)."""
        n, g, k = 27, 3, 3
        labels = {node_label(v, g, k) for v in range(n)}
        assert len(labels) == g**k

    def test_all_labels_occur_nonexact(self):
        n, k = 30, 3
        g = int_ceil_root(n, k)
        labels = {node_label(v, g, k) for v in range(n)}
        assert len(labels) == g**k

    def test_label_in_range(self):
        for v in range(50):
            lab = node_label(v, 3, 4)
            assert len(lab) == 4
            assert all(0 <= d < 3 for d in lab)


class TestLabelUnion:
    def test_union_dedup(self):
        groups = [[0, 1], [2, 3], [4]]
        assert label_union((0, 0, 2), groups) == [0, 1, 4]

    def test_union_sorted(self):
        groups = [[4, 5], [0, 1]]
        assert label_union((0, 1), groups) == [0, 1, 4, 5]


class TestBoolRows:
    @given(st.lists(st.lists(st.booleans(), min_size=5, max_size=5), max_size=9))
    def test_batched_decode_matches_per_row(self, rows):
        bits = [encode_bool_row(np.array(r, dtype=bool)) for r in rows]
        out = decode_bool_rows(bits, 5)
        assert out.shape == (len(rows), 5) and out.dtype == bool
        for i, r in enumerate(rows):
            assert out[i].tolist() == r
            assert decode_bool_row(bits[i], 5).tolist() == r

    def test_long_row_yields_its_leading_bits(self):
        assert decode_bool_row(BitString(0b10110, 5), 3).tolist() == [1, 0, 1]
        assert decode_bool_row(BitString(0b1, 1), 0).shape == (0,)

    def test_short_row_is_rejected(self):
        # A 3-bit row decoded at 8 bits used to come back left-padded.
        with pytest.raises(
            EncodingError, match="read of 8 bits at offset 0 overruns 3-bit message"
        ):
            decode_bool_row(BitString(0b101, 3), 8)

    def test_batched_decode_rejects_the_first_short_row(self):
        rows = [BitString(0b1111, 4), BitString(0b10, 2), BitString(0, 1)]
        with pytest.raises(
            EncodingError, match="read of 4 bits at offset 0 overruns 2-bit message"
        ):
            decode_bool_rows(rows, 4)


class TestDolevLayout:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_equals_an_uncached_computation(self, k):
        for n in range(1, 65):
            layout = dolev_layout(n, k)
            g = int_ceil_root(n, k)
            groups = group_partition(n, g)
            labels = [node_label(v, g, k) for v in range(n)]
            assert layout.g == g
            assert [list(grp) for grp in layout.groups] == groups
            assert list(layout.labels) == labels
            for v in range(n):
                union = label_union(labels[v], groups)
                index = layout.unions[v]
                assert index.dtype == np.intp and index.tolist() == union
                assert dict(layout.positions[v]) == {u: i for i, u in enumerate(union)}
            for j in range(g):
                assert list(layout.audience[j]) == [
                    v for v in range(n) if j in labels[v]
                ]
            assert all(
                group_of(u, n, g) == j for j in range(g) for u in layout.groups[j]
            )

    def test_cached_views_are_read_only(self):
        layout = dolev_layout(16, 2)
        assert dolev_layout(16, 2) is layout
        with pytest.raises(ValueError):
            layout.unions[0][0] = 3
        with pytest.raises(TypeError):
            layout.positions[0][0] = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.g = 5

    def test_cache_is_bounded(self):
        maxsize = dolev_layout.cache_info().maxsize
        assert maxsize is not None
        for n in range(1, maxsize + 10):
            dolev_layout(n, 2)
        assert dolev_layout.cache_info().currsize <= maxsize
