"""MSB-first bit packing with order-0 exp-Golomb codes."""

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
    def __init__(self, data):
        self._data = data
        self._pos = 0

    @property
    def position(self):
        return self._pos

    def read_bit(self):
        byte = self._pos >> 3
        if byte >= len(self._data):
            raise BitstreamError("read past end of stream", bit_offset=self._pos)
        bit = (self._data[byte] >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, n):
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def read_ue(self):
        """Order-0 exp-Golomb: value v >= 0 is (b-1) zeros then v+1 in b bits."""
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > 64:
                raise BitstreamError("runaway exp-Golomb prefix", bit_offset=self._pos)
        return ((1 << zeros) | self.read_bits(zeros)) - 1
