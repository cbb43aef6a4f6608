"""Bit-exact message payloads.

The congested clique's measured resource is *bits of communication*: each
ordered node pair may carry one message of at most ``B = c * ceil(log2 n)``
bits per round.  To keep that accounting honest, every message payload in
the simulator is a :class:`BitString` — an immutable, length-aware bit
vector — and all higher-level values (node identifiers, edge lists, matrix
blocks, distance vectors) are packed and unpacked through
:class:`BitWriter` / :class:`BitReader`.

A :class:`BitString` is backed by a Python ``int`` holding the bits
MSB-first plus an explicit bit length, so leading zero bits are preserved
and ``len()`` is exact.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EncodingError

__all__ = [
    "BitString",
    "BitWriter",
    "BitReader",
    "uint_width",
    "encode_uint_array",
    "decode_uint_array",
    "concat_uints",
    "fold_inbox",
]

#: Widest lane the numpy bulk kernels handle; wider values take the
#: big-int divide-and-conquer path.
_U64_WIDTH = 64

#: Below this many lanes the fixed numpy dispatch cost exceeds a plain
#: shift loop (which is quadratic, but bounded here), so the bulk
#: kernels drop to scalar code.
_SMALL_COUNT = 32


def uint_width(max_value: int) -> int:
    """Number of bits needed to encode any integer in ``[0, max_value]``.

    ``uint_width(0) == 1``: even a constant needs one bit on the wire in
    our accounting (a zero-bit message is reserved for "no message").
    """
    if max_value < 0:
        raise EncodingError(f"max_value must be nonnegative, got {max_value}")
    return max(1, max_value.bit_length())


class BitString:
    """An immutable sequence of bits (MSB-first).

    Supports concatenation (``+``), slicing, indexing, equality and
    hashing, so bit strings can be dict keys (e.g. transcript tables).
    """

    __slots__ = ("_value", "_length", "_hash")

    def __init__(self, value: int = 0, length: int = 0) -> None:
        if length < 0:
            raise EncodingError(f"negative bit length {length}")
        if value < 0:
            raise EncodingError("BitString value must be nonnegative")
        if value.bit_length() > length:
            raise EncodingError(
                f"value {value} does not fit in {length} bits"
            )
        self._value = value
        self._length = length

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        """Build from an iterable of 0/1 integers, first bit = MSB."""
        value = 0
        length = 0
        for b in bits:
            if b not in (0, 1):
                raise EncodingError(f"bit must be 0 or 1, got {b!r}")
            value = (value << 1) | b
            length += 1
        return cls(value, length)

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        """Build from a string of ``'0'``/``'1'`` characters."""
        return cls.from_bits(int(c) for c in s)

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(0, length)

    @classmethod
    def empty(cls) -> "BitString":
        return _EMPTY

    @classmethod
    def concat(cls, chunks: "Sequence[BitString]") -> "BitString":
        """Concatenate many bit strings in one pass.

        Equivalent to summing with ``+`` (or a ``write_bits`` loop) but
        merges by divide and conquer, so the big-int work is
        O(L log m) for m chunks totalling L bits instead of O(L * m).
        """
        if not chunks:
            return _EMPTY
        if len(chunks) <= _SMALL_COUNT:
            value = 0
            length = 0
            for chunk in chunks:
                value = (value << chunk._length) | chunk._value
                length += chunk._length
            return cls(value, length)

        def rec(lo: int, hi: int) -> tuple[int, int]:
            if hi - lo == 1:
                chunk = chunks[lo]
                return chunk._value, chunk._length
            mid = (lo + hi) // 2
            v1, l1 = rec(lo, mid)
            v2, l2 = rec(mid, hi)
            return (v1 << l2) | v2, l1 + l2

        return cls(*rec(0, len(chunks)))

    # -- accessors -------------------------------------------------------

    @property
    def value(self) -> int:
        """The bits interpreted as an unsigned integer (MSB-first)."""
        return self._value

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                return BitString.from_bits(
                    self._bit_at(i) for i in range(start, stop, step)
                )
            if stop <= start:
                return _EMPTY
            width = stop - start
            shifted = self._value >> (self._length - stop)
            return BitString(shifted & ((1 << width) - 1), width)
        i = index
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError(f"bit index {index} out of range")
        return self._bit_at(i)

    def _bit_at(self, i: int) -> int:
        return (self._value >> (self._length - 1 - i)) & 1

    def __iter__(self) -> Iterator[int]:
        for i in range(self._length):
            yield self._bit_at(i)

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._value == other._value and self._length == other._length

    def __hash__(self) -> int:
        # Hashing a big-int payload is O(bits); cache it so transcript
        # tables and payload interning pay that cost once per object.
        # The slot stays unset until first use, keeping construction
        # (the truly hot operation) free of the extra store.
        try:
            return self._hash
        except AttributeError:
            h = hash((self._value, self._length))
            self._hash = h
            return h

    def __repr__(self) -> str:
        if self._length <= 64:
            return f"BitString('{self.to_str()}')"
        return f"BitString(<{self._length} bits>)"

    def to_str(self) -> str:
        """Render as a '0'/'1' string (MSB first)."""
        return format(self._value, f"0{self._length}b") if self._length else ""

    def to_bits(self) -> list[int]:
        """The bits as a list of 0/1 ints (MSB first)."""
        return list(self)

    def split(self, width: int) -> "list[BitString]":
        """Split into consecutive ``width``-bit chunks (MSB first).

        The final chunk is shorter when the length is not a multiple of
        ``width``.  Equivalent to ``[self[i : i + width] for i in
        range(0, len(self), width)]`` but avoids the per-slice big-int
        shifts, which are quadratic in the total length.
        """
        if width < 1:
            raise EncodingError(f"split width must be >= 1, got {width}")
        length = self._length
        if length == 0:
            return []
        if length <= width:
            return [self]
        full, tail = divmod(length, width)
        value = self._value
        chunks = (
            [BitString(v, width) for v in _split_uints(value >> tail, full, width)]
            if full
            else []
        )
        if tail:
            chunks.append(BitString(value & ((1 << tail) - 1), tail))
        return chunks


_EMPTY = BitString(0, 0)


def _merge_uints(values: Sequence[int], lo: int, hi: int, width: int) -> int:
    """Concatenate ``values[lo:hi]`` (each ``width`` bits) into one int
    by divide and conquer, so total work is O(L log m) big-int bit ops
    instead of the O(L * m) of a shift-per-value loop (kept for runs of
    at most ``_SMALL_COUNT`` values, where it is cheaper)."""
    if hi - lo <= _SMALL_COUNT:
        value = 0
        for i in range(lo, hi):
            value = (value << width) | int(values[i])
        return value
    mid = (lo + hi) // 2
    return (_merge_uints(values, lo, mid, width) << ((hi - mid) * width)) | (
        _merge_uints(values, mid, hi, width)
    )


def _split_uints(value: int, count: int, width: int) -> list[int]:
    """Split ``value`` (``count * width`` bits, MSB first) into ``count``
    unsigned ints.  Lanes of at most 64 bits go through numpy
    (bytes -> unpackbits -> per-row dot with powers of two); wider lanes
    recurse on big-int halves."""
    if count <= _SMALL_COUNT:
        mask = (1 << width) - 1
        return [(value >> ((count - 1 - i) * width)) & mask for i in range(count)]
    if width <= _U64_WIDTH:
        total = count * width
        raw = (value << (-total % 8)).to_bytes((total + 7) // 8, "big")
        bit_matrix = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=total)
        powers = np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64)
        return (bit_matrix.reshape(count, width).astype(np.uint64) @ powers).tolist()
    hi_count = count // 2
    lo_bits = (count - hi_count) * width
    return _split_uints(value >> lo_bits, hi_count, width) + _split_uints(
        value & ((1 << lo_bits) - 1), count - hi_count, width
    )


def _encode_uint_seq_scalar(values: Sequence[int], width: int) -> BitString:
    """Arbitrary-precision fallback for :func:`encode_uint_array`."""
    if isinstance(values, np.ndarray):
        vals = values.tolist()
    else:
        vals = [int(v) for v in values]
    for v in vals:
        if v < 0 or v.bit_length() > width:
            raise EncodingError(f"value {v} does not fit in {width} bits")
    return concat_uints(vals, width)


def concat_uints(values: Sequence[int], width: int) -> BitString:
    """Concatenate unsigned ints of ``width`` bits each, MSB first.

    Unchecked: the caller guarantees every value fits in ``width`` bits
    (see :func:`encode_uint_array` for the checked form).
    """
    if not values:
        return _EMPTY
    count = len(values)
    return BitString(_merge_uints(values, 0, count, width), count * width)


def fold_inbox(
    values: list[int] | dict[int, int],
    lengths: list[int] | dict[int, int],
    inbox: Mapping[int, BitString],
) -> None:
    """Append each message of ``inbox`` (``{src: BitString}``) to its
    sender's int, in place.

    ``values[src]`` gains the message's bits at its low end and
    ``lengths[src]`` its width, so over several rounds ``values[src]``
    becomes what :meth:`BitString.concat` of that sender's messages would
    hold.  Both containers are indexed by sender: lists of ``n`` ints, or
    ``defaultdict(int)``.  Callers make one call per round, which keeps
    the per-message loop free of call overhead.
    """
    for src, msg in inbox.items():
        width = msg._length
        values[src] = (values[src] << width) | msg._value
        lengths[src] += width


def encode_uint_array(values: Sequence[int], width: int) -> BitString:
    """Encode a sequence of unsigned ints, each as ``width`` bits.

    Bulk counterpart of repeated :meth:`BitWriter.write_uint` calls:
    bit-exact with the scalar path, but vectorised through numpy
    (values -> bit matrix -> ``packbits`` -> one big int) so the cost is
    linear in the output length instead of quadratic.  Values wider than
    64 bits, and inputs numpy cannot hold, fall back to an
    arbitrary-precision divide-and-conquer merge.

    Unlike ``write_uint``, a width of 0 is rejected: a zero-bit lane
    cannot carry a value and is reserved for "no message".
    """
    if width < 1:
        raise EncodingError(f"bulk encode width must be >= 1, got {width}")
    try:
        small = len(values) <= _SMALL_COUNT
    except TypeError:
        values = list(values)
        small = len(values) <= _SMALL_COUNT
    if small:
        return _encode_uint_seq_scalar(values, width)
    arr: "np.ndarray | None"
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        arr = values.ravel()
    else:
        try:
            arr = np.asarray(values, dtype=np.int64).ravel()
        except (OverflowError, TypeError, ValueError):
            arr = None  # values beyond int64 (or odd types): big-int path
    if arr is None:
        return _encode_uint_seq_scalar(values, width)
    count = int(arr.size)
    if count == 0:
        return _EMPTY
    if width > _U64_WIDTH:
        return _encode_uint_seq_scalar(arr.tolist(), width)
    if arr.dtype.kind == "i" and int(arr.min()) < 0:
        bad = int(arr[int(np.argmax(arr < 0))])
        raise EncodingError(f"value {bad} does not fit in {width} bits")
    lanes = arr.astype(np.uint64, copy=False)
    if width < _U64_WIDTH:
        over = lanes >> np.uint64(width)
        if over.any():
            bad = int(lanes[int(np.argmax(over != 0))])
            raise EncodingError(f"value {bad} does not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bit_matrix = ((lanes[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    total = count * width
    packed = np.packbits(bit_matrix.ravel())
    value = int.from_bytes(packed.tobytes(), "big") >> (-total % 8)
    return BitString(value, total)


def decode_uint_array(bits: BitString, count: int, width: int) -> list[int]:
    """Decode the first ``count * width`` bits of ``bits`` as ``count``
    unsigned ``width``-bit ints (bulk counterpart of
    :meth:`BitReader.read_uints`; bit-exact with it).  Like
    :func:`encode_uint_array`, a width of 0 is rejected.
    """
    if width < 1:
        raise EncodingError(f"bulk decode width must be >= 1, got {width}")
    if count < 0:
        raise EncodingError(f"negative decode count {count}")
    total = count * width
    if total > len(bits):
        raise EncodingError(
            f"read of {total} bits at offset 0 overruns {len(bits)}-bit message"
        )
    if count == 0:
        return []
    return _split_uints(bits.value >> (len(bits) - total), count, width)


class BitWriter:
    """Incrementally packs values into a single :class:`BitString`.

    Mirrors the mpi4py convention of explicit datatypes: every write names
    its width so the matching :class:`BitReader` can parse symmetrically.
    """

    __slots__ = ("_value", "_length")

    def __init__(self) -> None:
        self._value = 0
        self._length = 0

    def write_bit(self, bit: int) -> "BitWriter":
        """Append one bit."""
        if bit not in (0, 1):
            raise EncodingError(f"bit must be 0 or 1, got {bit!r}")
        self._value = (self._value << 1) | bit
        self._length += 1
        return self

    def write_uint(self, value: int, width: int) -> "BitWriter":
        """Append ``value`` as ``width`` unsigned bits."""
        if value < 0 or value.bit_length() > width:
            raise EncodingError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._length += width
        return self

    def write_int(self, value: int, width: int) -> "BitWriter":
        """Two's-complement signed write; ``width`` includes the sign bit."""
        lo = -(1 << (width - 1))
        hi = (1 << (width - 1)) - 1
        if not lo <= value <= hi:
            raise EncodingError(f"value {value} does not fit in int{width}")
        return self.write_uint(value & ((1 << width) - 1), width)

    def write_bits(self, bits: BitString) -> "BitWriter":
        """Append an existing BitString."""
        self._value = (self._value << len(bits)) | bits.value
        self._length += len(bits)
        return self

    def write_uints(self, values: Sequence[int], width: int) -> "BitWriter":
        """Append each value as ``width`` unsigned bits in one bulk pass.

        Bit-exact with a :meth:`write_uint` loop but linear in the output
        length (see :func:`encode_uint_array`).  Rejects ``width == 0``.
        """
        chunk = encode_uint_array(values, width)
        self._value = (self._value << chunk._length) | chunk._value
        self._length += chunk._length
        return self

    def __len__(self) -> int:
        return self._length

    def finish(self) -> BitString:
        """The accumulated bits as an immutable BitString."""
        return BitString(self._value, self._length)


class BitReader:
    """Sequentially unpacks values written by a :class:`BitWriter`."""

    __slots__ = ("_bits", "_pos")

    def __init__(self, bits: BitString) -> None:
        self._bits = bits
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._pos

    def read_bit(self) -> int:
        """Read one bit."""
        return self.read_uint(1)

    def read_uint(self, width: int) -> int:
        """Read a ``width``-bit unsigned integer."""
        if width < 0:
            raise EncodingError(f"negative read width {width}")
        if self._pos + width > len(self._bits):
            raise EncodingError(
                f"read of {width} bits at offset {self._pos} overruns "
                f"{len(self._bits)}-bit message"
            )
        chunk = self._bits[self._pos : self._pos + width]
        self._pos += width
        return chunk.value

    def read_int(self, width: int) -> int:
        """Read a two's-complement signed ``width``-bit integer."""
        raw = self.read_uint(width)
        if raw >= 1 << (width - 1):
            raw -= 1 << width
        return raw

    def read_bits(self, width: int) -> BitString:
        """Read ``width`` raw bits as a BitString."""
        if self._pos + width > len(self._bits):
            raise EncodingError(
                f"read of {width} bits at offset {self._pos} overruns "
                f"{len(self._bits)}-bit message"
            )
        chunk = self._bits[self._pos : self._pos + width]
        self._pos += width
        return chunk

    def read_uints(self, count: int, width: int) -> list[int]:
        """Read ``count`` unsigned ``width``-bit integers in one bulk
        pass (bit-exact with a :meth:`read_uint` loop; rejects
        ``width == 0`` — see :func:`decode_uint_array`)."""
        if width < 1:
            raise EncodingError(f"bulk read width must be >= 1, got {width}")
        if count < 0:
            raise EncodingError(f"negative read count {count}")
        total = count * width
        bits = self._bits
        if self._pos + total > len(bits):
            raise EncodingError(
                f"read of {total} bits at offset {self._pos} overruns "
                f"{len(bits)}-bit message"
            )
        if count == 0:
            return []
        end = self._pos + total
        value = (bits.value >> (len(bits) - end)) & ((1 << total) - 1)
        self._pos = end
        return _split_uints(value, count, width)

    def read_rest(self) -> BitString:
        """Read all remaining bits."""
        return self.read_bits(self.remaining)
