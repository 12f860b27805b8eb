"""MSB-first bit packing with order-0 exp-Golomb codes: `pack_bits` packs a
stream's (value, bit length) field columns in one array pass, and
`BitReader` parses it field by field."""

import numpy as np

from .errors import BitstreamError


def pack_bits(values, lengths):
    """Pack fields MSB-first into bytes, zero-padding the last byte.

    `values` (int32) and `lengths` (uint8, each below 32) are same-shape
    arrays of fields in emission order, row-major; each value must fit in
    its length, and zero-length fields are dropped.
    """
    lengths = np.ravel(lengths)
    keep = lengths > 0
    values, lengths = np.ravel(values)[keep], lengths[keep]
    # Each bit's shift within its field: length - 1 at the field's first
    # bit, then one less per bit.  int8 steps keep the per-bit arrays small.
    step = np.full(int(lengths.sum()), -1, dtype=np.int8)
    step[np.cumsum(lengths) - lengths] = lengths - 1
    bits = np.repeat(values, lengths)
    bits >>= np.cumsum(step, dtype=np.int8)
    bits &= 1
    return np.packbits(bits).tobytes()


class BitReader:
    """Reads MSB-first fields from a payload unpacked once into a string of
    ASCII '0'/'1' bytes: a field is one int() of a slice and an exp-Golomb
    prefix one find() over a window.

    `bits` is that string and `position` the next bit to read; a parser
    that scans `bits` itself sets `position` past what it consumed.
    """

    def __init__(self, data):
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        bits |= ord("0")
        self.bits = bits.tobytes()
        self.position = 0

    def _past_end(self):
        return BitstreamError("read past end of stream", bit_offset=len(self.bits))

    def read_bit(self):
        pos = self.position
        if pos >= len(self.bits):
            raise self._past_end()
        self.position = pos + 1
        return self.bits[pos] & 1

    def read_bits(self, n):
        pos, end = self.position, self.position + n
        if end > len(self.bits):
            raise self._past_end()
        self.position = end
        return int(self.bits[pos:end], 2) if n else 0

    def read_ue(self):
        """Order-0 exp-Golomb: value v >= 0 is (b-1) zeros then v+1 in b bits."""
        bits, pos = self.bits, self.position
        one = bits.find(b"1", pos, pos + 65)  # at most 64 zeros
        if one < 0:
            if pos + 65 <= len(bits):
                raise BitstreamError("runaway exp-Golomb prefix", bit_offset=pos + 65)
            raise self._past_end()
        end = 2 * one - pos + 1  # the b = zeros + 1 bits of v + 1 start at the 1
        if end > len(bits):
            raise self._past_end()
        self.position = end
        return int(bits[one:end], 2) - 1
