"""Property tests: the bulk codec kernels are bit-exact with the scalar
:class:`BitWriter`/:class:`BitReader` path.

The bulk kernels (`encode_uint_array` / `decode_uint_array` and the
`write_uints` / `read_uints` fast paths) switch implementation by lane
width (numpy ``packbits`` up to 64 bits, big-int divide and conquer
above) and by element count (scalar loop below the small-count cutoff),
so the strategies deliberately straddle both thresholds.  Whatever route
a (count, width) pair takes, the bits must be identical to a plain
``write_uint`` loop — that is the whole contract that lets the hot
encoders adopt the kernels without perturbing any round or bit count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clique.bits import (
    BitReader,
    BitString,
    BitWriter,
    concat_uints,
    decode_uint_array,
    encode_uint_array,
    fold_inbox,
)
from repro.clique.errors import EncodingError

# Widths straddle the 64-bit numpy lane limit; counts straddle the
# small-count scalar cutoff (32).
widths = st.integers(min_value=1, max_value=100)


@st.composite
def lanes(draw):
    """A (values, width) pair with every value in range for the width."""
    width = draw(widths)
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            max_size=80,
        )
    )
    return values, width


def scalar_encode(values, width):
    writer = BitWriter()
    for value in values:
        writer.write_uint(value, width)
    return writer.finish()


class TestBulkScalarParity:
    @given(lanes())
    @settings(max_examples=200, deadline=None)
    def test_encode_matches_scalar_writer(self, case):
        values, width = case
        bulk = encode_uint_array(values, width)
        scalar = scalar_encode(values, width)
        assert bulk == scalar
        assert len(bulk) == len(values) * width

    @given(lanes())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, case):
        values, width = case
        bits = encode_uint_array(values, width)
        assert decode_uint_array(bits, len(values), width) == values

    @given(lanes())
    @settings(max_examples=200, deadline=None)
    def test_decode_matches_scalar_reader(self, case):
        values, width = case
        bits = scalar_encode(values, width)
        reader = BitReader(bits)
        scalar = [reader.read_uint(width) for _ in range(len(values))]
        assert decode_uint_array(bits, len(values), width) == scalar

    @given(lanes(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=150, deadline=None)
    def test_writer_reader_fast_paths_mid_stream(self, case, prefix):
        # The bulk span sits behind a non-aligned prefix, so the reader
        # fast path must honour the running offset exactly.
        values, width = case
        bulk_writer = BitWriter().write_uint(prefix, 3)
        bulk_writer.write_uints(values, width).write_uint(5, 3)
        scalar_writer = BitWriter().write_uint(prefix, 3)
        for value in values:
            scalar_writer.write_uint(value, width)
        scalar_writer.write_uint(5, 3)
        assert bulk_writer.finish() == scalar_writer.finish()

        reader = BitReader(bulk_writer.finish())
        assert reader.read_uint(3) == prefix
        assert reader.read_uints(len(values), width) == values
        assert reader.read_uint(3) == 5
        assert reader.remaining == 0

    @given(lanes())
    @settings(max_examples=100, deadline=None)
    def test_numpy_input_matches_list_input(self, case):
        values, width = case
        if width >= 64:
            values = [v & ((1 << 63) - 1) for v in values]  # int64-safe
        arr = np.asarray(values, dtype=np.int64)
        assert encode_uint_array(arr, width) == encode_uint_array(values, width)


class TestWidthZeroRejection:
    """A zero-bit lane cannot carry a value: the bulk kernels reject
    ``width == 0`` outright (scalar ``write_uint(0, 0)`` stays a no-op)."""

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_bulk_encode_rejects_width_zero(self, values):
        with pytest.raises(EncodingError, match="width must be >= 1"):
            encode_uint_array(values, 0)
        with pytest.raises(EncodingError, match="width must be >= 1"):
            BitWriter().write_uints(values, 0)

    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_bulk_decode_rejects_width_zero(self, count):
        bits = scalar_encode([1, 2, 3], 4)
        with pytest.raises(EncodingError, match="width must be >= 1"):
            decode_uint_array(bits, count, 0)
        with pytest.raises(EncodingError, match="width must be >= 1"):
            BitReader(bits).read_uints(count, 0)

    def test_out_of_range_value_rejected_like_scalar(self):
        for values in ([8], list(range(40)) + [8]):  # scalar + numpy route
            with pytest.raises(EncodingError, match="does not fit"):
                encode_uint_array(values, 3)
            with pytest.raises(EncodingError, match="does not fit"):
                scalar_encode(values, 3)

    def test_negative_value_rejected(self):
        for values in ([-1], list(range(40)) + [-1]):
            with pytest.raises(EncodingError, match="does not fit|negative"):
                encode_uint_array(values, 8)

    def test_decode_overrun_rejected(self):
        bits = scalar_encode([1, 2, 3], 4)  # 12 bits
        with pytest.raises(EncodingError, match="overruns"):
            decode_uint_array(bits, 4, 4)
        with pytest.raises(EncodingError, match="negative decode count"):
            decode_uint_array(bits, -1, 4)


class TestJoins:
    """The unchecked joins the collectives use: bit-exact with the
    checked encoder and with :meth:`BitString.concat`."""

    @settings(max_examples=150, deadline=None)
    @given(lanes())
    def test_concat_uints_matches_scalar(self, case):
        values, width = case
        assert concat_uints(values, width) == scalar_encode(values, width)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.integers(0, 4),
                st.integers(1, 70).flatmap(
                    lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))
                ),
            ),
            max_size=6,
        )
    )
    def test_fold_inbox_matches_concat(self, rounds):
        inboxes = [
            {src: BitString(v, w) for src, (v, w) in inbox.items()}
            for inbox in rounds
        ]
        values, lengths = [0] * 5, [0] * 5
        for inbox in inboxes:
            fold_inbox(values, lengths, inbox)
        for src in range(5):
            joined = BitString.concat(
                [inbox[src] for inbox in inboxes if src in inbox]
            )
            assert (values[src], lengths[src]) == (joined.value, len(joined))
