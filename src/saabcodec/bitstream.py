"""MSB-first bit packing with order-0 exp-Golomb codes."""

import numpy as np

from .errors import BitstreamError


class BitWriter:
    def __init__(self):
        self._buf = bytearray()
        self._acc = 0  # the pending bits past the last whole byte
        self._n = 0

    @property
    def bit_length(self):
        return 8 * len(self._buf) + self._n

    def _put(self, value, n):
        acc = (self._acc << n) | value
        n += self._n
        whole = n >> 3
        if whole:
            n -= whole << 3
            self._buf += (acc >> n).to_bytes(whole, "big")
            acc &= (1 << n) - 1
        self._acc = acc
        self._n = n

    def write_bit(self, bit):
        self._put(1 if bit else 0, 1)

    def write_bits(self, value, n):
        value = int(value)
        if value < 0 or value >> n:
            raise BitstreamError(f"value {value} does not fit in {n} bits")
        self._put(value, n)

    def getvalue(self):
        """Byte-aligned contents; pads the tail with zero bits."""
        out = bytearray(self._buf)
        if self._n:
            out.append(self._acc << (8 - self._n))
        return bytes(out)


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
