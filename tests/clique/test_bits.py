"""Unit and property tests for bit-exact message payloads."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clique.bits import (
    BitReader,
    BitString,
    BitWriter,
    uint_width,
)
from repro.clique.errors import EncodingError


class TestUintWidth:
    def test_zero_needs_one_bit(self):
        assert uint_width(0) == 1

    def test_powers_of_two(self):
        assert uint_width(1) == 1
        assert uint_width(2) == 2
        assert uint_width(3) == 2
        assert uint_width(4) == 3
        assert uint_width(255) == 8
        assert uint_width(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            uint_width(-1)


class TestBitString:
    def test_empty(self):
        b = BitString.empty()
        assert len(b) == 0
        assert not b
        assert b.to_str() == ""

    def test_from_str_roundtrip(self):
        b = BitString.from_str("10110")
        assert len(b) == 5
        assert b.to_str() == "10110"
        assert b.value == 0b10110

    def test_leading_zeros_preserved(self):
        b = BitString.from_str("0001")
        assert len(b) == 4
        assert b.value == 1
        assert b.to_str() == "0001"

    def test_indexing_msb_first(self):
        b = BitString.from_str("100")
        assert b[0] == 1
        assert b[1] == 0
        assert b[2] == 0
        assert b[-1] == 0
        assert b[-3] == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            BitString.from_str("1")[1]

    def test_slicing(self):
        b = BitString.from_str("101100")
        assert b[1:4].to_str() == "011"
        assert b[:0].to_str() == ""
        assert b[4:].to_str() == "00"
        assert b[:].to_str() == "101100"

    def test_strided_slice(self):
        b = BitString.from_str("101010")
        assert b[::2].to_str() == "111"

    def test_concatenation(self):
        a = BitString.from_str("10")
        b = BitString.from_str("011")
        assert (a + b).to_str() == "10011"

    def test_equality_and_hash(self):
        a = BitString.from_str("0101")
        b = BitString.from_str("0101")
        c = BitString.from_str("101")  # same value, different length
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_value_too_large_rejected(self):
        with pytest.raises(EncodingError):
            BitString(4, 2)

    def test_iteration(self):
        assert list(BitString.from_str("110")) == [1, 1, 0]

    def test_zeros(self):
        z = BitString.zeros(5)
        assert z.to_str() == "00000"

    def test_bad_bit_rejected(self):
        with pytest.raises(EncodingError):
            BitString.from_bits([0, 2, 1])

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_from_bits_roundtrip(self, bits):
        b = BitString.from_bits(bits)
        assert b.to_bits() == bits
        assert len(b) == len(bits)

    @given(
        st.lists(st.integers(0, 1), max_size=64),
        st.lists(st.integers(0, 1), max_size=64),
    )
    def test_concat_is_associative_with_lists(self, xs, ys):
        a, b = BitString.from_bits(xs), BitString.from_bits(ys)
        assert (a + b).to_bits() == xs + ys

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=100), st.data())
    def test_slice_matches_list_slice(self, bits, data):
        b = BitString.from_bits(bits)
        i = data.draw(st.integers(0, len(bits)))
        j = data.draw(st.integers(i, len(bits)))
        assert b[i:j].to_bits() == bits[i:j]


class TestEncodeDecodeUint:
    def test_roundtrip(self):
        for v in (0, 1, 5, 255):
            assert BitString(v, 8).value == v

    def test_overflow_rejected(self):
        with pytest.raises(EncodingError):
            BitString(4, 2)

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            BitString(-1, 8)

    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, v):
        assert BitString(v, 32).value == v


class TestWriterReader:
    def test_mixed_roundtrip(self):
        w = BitWriter()
        w.write_uint(5, 4)
        w.write_bit(1)
        w.write_int(-3, 8)
        w.write_uints([1, 2, 3], 5)
        w.write_bits(BitString.from_str("0110"))
        bits = w.finish()
        assert len(bits) == 4 + 1 + 8 + 15 + 4

        r = BitReader(bits)
        assert r.read_uint(4) == 5
        assert r.read_bit() == 1
        assert r.read_int(8) == -3
        assert r.read_uints(3, 5) == [1, 2, 3]
        assert r.read_bits(4).to_str() == "0110"
        assert r.remaining == 0

    def test_overrun_raises(self):
        r = BitReader(BitString.from_str("10"))
        with pytest.raises(EncodingError):
            r.read_uint(3)

    def test_writer_overflow(self):
        with pytest.raises(EncodingError):
            BitWriter().write_uint(8, 3)

    def test_signed_bounds(self):
        w = BitWriter()
        w.write_int(-128, 8)
        w.write_int(127, 8)
        r = BitReader(w.finish())
        assert r.read_int(8) == -128
        assert r.read_int(8) == 127
        with pytest.raises(EncodingError):
            BitWriter().write_int(128, 8)
        with pytest.raises(EncodingError):
            BitWriter().write_int(-129, 8)

    def test_read_rest(self):
        w = BitWriter().write_uint(3, 2).write_uint(9, 6)
        r = BitReader(w.finish())
        r.read_uint(2)
        assert r.read_rest().value == 9

    @given(st.lists(st.integers(-100, 100), max_size=50))
    def test_int_seq_roundtrip(self, values):
        w = BitWriter()
        for v in values:
            w.write_int(v, 9)
        r = BitReader(w.finish())
        assert [r.read_int(9) for _ in values] == values

    @given(st.lists(st.tuples(st.integers(0, 2**16 - 1), st.booleans())))
    def test_heterogeneous_stream(self, items):
        w = BitWriter()
        for v, flag in items:
            w.write_uint(v, 16)
            w.write_bit(int(flag))
        r = BitReader(w.finish())
        for v, flag in items:
            assert r.read_uint(16) == v
            assert r.read_bit() == int(flag)
        assert r.remaining == 0
