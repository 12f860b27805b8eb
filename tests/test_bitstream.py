import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saabcodec.bitstream import BitReader, pack_bits
from saabcodec.errors import BitstreamError


def test_bit_roundtrip():
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]
    data = pack_bits(np.array(bits, dtype=np.int32), np.ones(len(bits), dtype=np.uint8))
    assert data == bytes([0b10110010, 0b11100000])
    for reader in BitReader(data), _BitByBitReader(data):
        assert [reader.read_bit() for _ in bits] == bits


def test_write_bits_msb_first():
    data = pack_bits(np.array([0b101101], dtype=np.int32), np.array([6], dtype=np.uint8))
    assert data == bytes([0b10110100])
    for reader in BitReader(data), _BitByBitReader(data):
        assert reader.read_bits(6) == 0b101101


def test_truncated_read_raises():
    br = BitReader(b"\xff")
    br.read_bits(8)
    with pytest.raises(BitstreamError):
        br.read_bit()


def test_runaway_ue_prefix_raises():
    br = BitReader(b"\x00" * 20)
    with pytest.raises(BitstreamError):
        br.read_ue()


def test_position_tracking():
    data = pack_bits(np.zeros(1, dtype=np.int32), np.array([13], dtype=np.uint8))
    assert data == bytes(2)
    br = BitReader(data)
    br.read_bits(5)
    assert br.position == 5


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


def _read(reader, op, n):
    return reader.read_bit() if op == "bit" else reader.read_bits(n) if op == "bits" else reader.read_ue()


# Bytes rich in long zero runs, so that runaway and cut-off prefixes occur.
_PAYLOADS = st.one_of(
    st.binary(max_size=24),
    st.lists(
        st.sampled_from([bytes(8), b"\x00", b"\x01", b"\x80", b"\x5a", b"\xff"]), max_size=12
    ).map(b"".join),
)


@settings(max_examples=300, deadline=None)
# exp-Golomb prefixes at the 64-zero limit: cut off, runaway, longest code, cut-off code
@example(data=bytes(8), ops=[("ue", 0)])
@example(data=bytes(9), ops=[("ue", 0)])
@example(data=bytes(8) + b"\x80" + bytes(8), ops=[("ue", 0)])
@example(data=bytes(8) + b"\x80" + bytes(7), ops=[("ue", 0)])
@given(
    data=_PAYLOADS,
    ops=st.lists(st.tuples(st.sampled_from(["bit", "bits", "ue"]), st.integers(0, 70)), max_size=40),
)
def test_reader_matches_bit_by_bit_reference(data, ops):
    """Every read returns what one-bit-at-a-time reads return, ends at the
    same position, and fails with the same message and bit offset."""
    reader, reference = BitReader(data), _BitByBitReader(data)
    for op, n in ops:
        try:
            want = _read(reference, op, n)
        except BitstreamError as e:
            with pytest.raises(BitstreamError) as got:
                _read(reader, op, n)
            assert (str(got.value), got.value.bit_offset) == (str(e), e.bit_offset)
            return
        assert _read(reader, op, n) == want
        assert reader.position == reference.position


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
