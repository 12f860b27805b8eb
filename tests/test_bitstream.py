import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saabcodec.bitstream import BitReader, BitWriter
from saabcodec.errors import BitstreamError


def test_bit_roundtrip():
    bw = BitWriter()
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]
    for b in bits:
        bw.write_bit(b)
    br = BitReader(bw.getvalue())
    assert [br.read_bit() for _ in bits] == bits


def test_write_bits_msb_first():
    bw = BitWriter()
    bw.write_bits(0b101101, 6)
    br = BitReader(bw.getvalue())
    assert br.read_bits(6) == 0b101101


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
    bw = BitWriter()
    bw.write_bits(0, 13)
    assert bw.bit_length == 13
    br = BitReader(bw.getvalue())
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
