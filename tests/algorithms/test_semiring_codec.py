"""The semiring entry codec, and matmul's cached cube layout.

The encoder maps INF on Python ints for blocks of at most ``_SMALL_COUNT``
entries on lanes narrower than 64 bits, and through numpy otherwise; it
must return the bits, or raise the error, of the all-numpy encoder it
replaced.  The decoder is checked against a per-entry read.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.common import group_of, group_partition, int_ceil_root
from repro.algorithms.matmul import SEMIRINGS, _triple_of, cube_layout
from repro.clique.bits import (
    _SMALL_COUNT,
    BitReader,
    BitString,
    encode_uint_array,
)
from repro.clique.errors import EncodingError
from repro.clique.graph import INF

INT64_MAX = 2**63 - 1


def outcome(fn, *args):
    """What a codec call did: its result, or its error's type and text."""
    try:
        out = fn(*args)
    except Exception as exc:  # every error type must match
        return ("raises", type(exc), str(exc))
    if isinstance(out, np.ndarray):
        return ("array", out.dtype.str, out.shape, out.tolist())
    assert isinstance(out, BitString)
    return ("bits", out.value, len(out))


def numpy_encode(semiring, values, width):
    """The all-numpy encoder: the reference for both INF mappings."""
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size == 0:
        return BitString.empty()
    if semiring.uses_inf:
        sentinel = (1 << width) - 1
        infinite = arr >= INF
        colliding = ~infinite & (arr >= sentinel)
        if colliding.any():
            bad = int(arr[int(np.argmax(colliding))])
            raise ValueError(
                f"{semiring.name}: finite entry {bad} collides with the "
                f"{width}-bit INF sentinel"
            )
        arr = np.where(infinite, np.int64(sentinel), arr)
    return encode_uint_array(arr, width)


def entries(width):
    """int64 entries around the ones that matter at ``width``: INF, the
    all-ones sentinel, negatives and values that overflow the lane."""
    sentinel = (1 << max(0, width)) - 1
    near = [
        v
        for v in (sentinel - 1, sentinel, sentinel + 1, 1 << max(0, width))
        if -(2**63) <= v <= INT64_MAX
    ]
    return st.one_of(
        st.integers(0, min(sentinel, INT64_MAX)),
        st.sampled_from([INF, INF + 1, INT64_MAX, 0, -1, *near]),
        st.integers(-(2**63), INT64_MAX),
    )


@st.composite
def blocks(draw):
    width = draw(st.integers(-1, 70))
    count = draw(st.integers(0, 2 * _SMALL_COUNT))
    values = draw(st.lists(entries(width), min_size=count, max_size=count))
    return np.array(values, dtype=np.int64), width


@st.composite
def messages(draw):
    width = draw(st.integers(1, 70))
    count = draw(st.integers(0, 2 * _SMALL_COUNT))
    lanes = draw(
        st.lists(
            st.one_of(st.integers(0, (1 << width) - 1), st.just((1 << width) - 1)),
            min_size=count,
            max_size=count,
        )
    )
    value = 0
    for lane in lanes:
        value = (value << width) | lane
    # Trim or pad the message so some reads overrun and some have slack.
    slack = draw(st.integers(-width, 2 * width))
    length = count * width + slack
    if length < 0:
        length = 0
    if slack < 0:
        value >>= -slack
    else:
        value <<= slack
    value &= (1 << length) - 1
    return BitString(value, length), count, width


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
class TestSemiringCodecPaths:
    @settings(max_examples=300, deadline=None)
    @given(block=blocks())
    def test_encode_matches_the_numpy_encoder(self, name, block):
        semiring = SEMIRINGS[name]
        arr, width = block
        want = outcome(numpy_encode, semiring, arr, width)
        assert outcome(semiring.encode_entries, arr, width) == want

    @settings(max_examples=300, deadline=None)
    @given(message=messages())
    def test_decode_matches_a_per_entry_read(self, name, message):
        semiring = SEMIRINGS[name]
        bits, count, width = message
        got = outcome(semiring.decode_entries, bits, count, width)
        total = count * width
        if total > len(bits):
            text = f"read of {total} bits at offset 0 overruns {len(bits)}-bit message"
            assert got == ("raises", EncodingError, text)
            return
        reader = BitReader(bits)
        want = [reader.read_uint(width) for _ in range(count)]
        if semiring.uses_inf:
            want = [INF if v == (1 << width) - 1 else v for v in want]
        if all(v <= INT64_MAX for v in want):
            assert got == ("array", np.dtype(np.int64).str, (count,), want)
        else:
            assert got[:2] == ("raises", OverflowError)

    def test_collision_is_reported_before_an_unencodable_entry(self, name):
        semiring = SEMIRINGS[name]
        arr = np.array([-1, 40], dtype=np.int64)
        want = outcome(numpy_encode, semiring, arr, 5)
        assert outcome(semiring.encode_entries, arr, 5) == want
        if semiring.uses_inf:
            assert want[1] is ValueError and "collides" in want[2]


class TestCubeLayout:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_equals_an_uncached_computation(self, k):
        for n in range(1, 65):
            g = int_ceil_root(n, k)
            layout = cube_layout(n, g)
            blocks = group_partition(n, g)
            row = np.arange(n)
            assert layout.g == g
            assert [list(b) for b in layout.blocks] == blocks
            for x, block in enumerate(blocks):
                assert row[layout.spans[x]].tolist() == block
                assert list(layout.targets[x]) == [
                    (t, *_triple_of(t, g))
                    for t in range(g**3)
                    if x in _triple_of(t, g)[:2]
                ]
            for i in range(n):
                assert layout.block_of[i] == group_of(i, n, g)
                assert layout.position[i] == blocks[group_of(i, n, g)].index(i)

    def test_cached_and_immutable(self):
        layout = cube_layout(27, 3)
        assert cube_layout(27, 3) is layout
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.g = 2
        with pytest.raises(TypeError):
            layout.block_of[0] = 1

    def test_cache_is_bounded(self):
        maxsize = cube_layout.cache_info().maxsize
        assert maxsize is not None
        for n in range(1, maxsize + 10):
            cube_layout(n, int_ceil_root(n, 3))
        assert cube_layout.cache_info().currsize <= maxsize
