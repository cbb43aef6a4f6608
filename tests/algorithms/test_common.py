"""Tests for shared algorithm helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.common import (
    group_of,
    group_partition,
    int_ceil_root,
    label_union,
    node_label,
)
from repro.clique.errors import CliqueError


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
