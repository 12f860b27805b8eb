import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saabcodec import bitstream
from saabcodec.bitstream import pack_bits, unpack_bits
from saabcodec.errors import BitstreamError


def test_bit_roundtrip():
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]
    data = pack_bits(np.array(bits, dtype=np.int32), np.ones(len(bits), dtype=np.uint8))
    assert data == bytes([0b10110010, 0b11100000])
    reference = _BitByBitReader(data)
    assert [reference.read_bit() for _ in bits] == bits
    assert [b & 1 for b in unpack_bits(data)[: len(bits)]] == bits


def test_write_bits_msb_first():
    data = pack_bits(np.array([0b101101], dtype=np.int32), np.array([6], dtype=np.uint8))
    assert data == bytes([0b10110100])
    assert _BitByBitReader(data).read_bits(6) == 0b101101
    assert int(unpack_bits(data)[:6], 2) == 0b101101


def test_position_tracking():
    # a position in the unpacked string is a bit offset in the payload
    data = pack_bits(np.zeros(1, dtype=np.int32), np.array([13], dtype=np.uint8))
    assert data == bytes(2)
    assert unpack_bits(data) == b"0" * 16
    data = pack_bits(np.array([0, 0b10110], dtype=np.int32), np.array([5, 5], dtype=np.uint8))
    reference = _BitByBitReader(data)
    reference.read_bits(5)
    assert reference.position == 5
    assert int(unpack_bits(data)[5:10], 2) == reference.read_bits(5) == 0b10110


class _BitByBitReader:
    """Reference reader: every field read one bit at a time."""

    def __init__(self, data):
        self.data = data
        self.position = 0

    def read_bit(self):
        byte = self.position >> 3
        if byte >= len(self.data):
            raise BitstreamError("read past end of stream", bit_offset=self.position)
        bit = (self.data[byte] >> (7 - (self.position & 7))) & 1
        self.position += 1
        return bit

    def read_bits(self, n):
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def read_ue(self):
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > 64:
                raise BitstreamError("runaway exp-Golomb prefix", bit_offset=self.position)
        return ((1 << zeros) | self.read_bits(zeros)) - 1


# Arbitrary bytes, and bytes rich in long zero runs.
_PAYLOADS = st.one_of(
    st.binary(max_size=24),
    st.lists(
        st.sampled_from([bytes(8), b"\x00", b"\x01", b"\x80", b"\x5a", b"\xff"]), max_size=12
    ).map(b"".join),
)


@settings(max_examples=300, deadline=None)
@given(data=_PAYLOADS)
def test_unpack_bits_matches_bit_by_bit_reference(data):
    """unpack_bits gives one ASCII '0'/'1' byte per payload bit, in the
    order one-bit-at-a-time reads return them, and nothing after."""
    bits = unpack_bits(data)
    assert len(bits) == 8 * len(data)
    assert set(bits) <= set(b"01")
    reference = _BitByBitReader(data)
    assert [b & 1 for b in bits] == [reference.read_bit() for _ in bits]
    with pytest.raises(BitstreamError):
        reference.read_bit()


@settings(max_examples=300, deadline=None)
@given(
    fields=st.lists(
        st.integers(0, 31).flatmap(lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.just(n))),
        max_size=60,
    )
)
def test_pack_bits_matches_bit_by_bit_reference(fields):
    """Each field reads back in its own length, zero-length fields take no
    bits, and the last byte is padded with zero bits."""
    values = np.array([v for v, _ in fields], dtype=np.int32)
    lengths = np.array([n for _, n in fields], dtype=np.uint8)
    data = pack_bits(values, lengths)
    total = int(lengths.sum())
    assert len(data) == (total + 7) // 8
    reference = _BitByBitReader(data)
    assert [reference.read_bits(n) for _, n in fields] == [v for v, _ in fields]
    assert reference.read_bits(8 * len(data) - total) == 0


def _pack_bits_reference(values, lengths):
    """Reference packer: every field written one bit at a time, MSB first."""
    out, bit = bytearray(), 0
    for v, n in zip(values.tolist(), lengths.tolist()):
        for shift in range(n - 1, -1, -1):
            if bit % 8 == 0:
                out.append(0)
            out[-1] |= (v >> shift & 1) << (7 - bit % 8)
            bit += 1
    return bytes(out)


_CHUNK = bitstream._CHUNK_FIELDS


@pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
@pytest.mark.parametrize("zeros", ["none", "chunk_edge", "first_chunk"])
def test_pack_bits_chunks_match_bit_by_bit_reference(count, zeros):
    """Field counts around the chunk size, zero-length fields at a chunk
    edge or filling a whole chunk, and a total that is not a multiple of 8:
    the bytes a chunk leaves unfinished carry into the next one."""
    rng = np.random.default_rng(count)
    lengths = rng.integers(0, 32, size=count).astype(np.uint8)
    if zeros == "chunk_edge":
        lengths[_CHUNK - 3 : _CHUNK + 3] = 0
    elif zeros == "first_chunk":
        lengths[:_CHUNK] = 0
    lengths[-1] = 8 + (5 - int(lengths[:-1].sum())) % 8  # 5 bits past the last whole byte
    values = rng.integers(0, 1 << lengths.astype(np.int64)).astype(np.int32)
    data = pack_bits(values, lengths)
    assert int(lengths.sum()) % 8 == 5
    assert data == _pack_bits_reference(values, lengths)
