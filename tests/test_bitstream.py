import pytest

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
