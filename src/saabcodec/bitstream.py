"""MSB-first bit packing with order-0 exp-Golomb codes: `pack_bits` packs a
stream's (value, bit length) field columns in one array pass, and
`unpack_bits` turns a payload into the string of ASCII '0'/'1' bytes that
the decoder parses with one position of its own."""

import numpy as np


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


def unpack_bits(data):
    """The bits of `data`, MSB-first, as a bytes string of ASCII '0'/'1':
    bit i is `bits[i] & 1`, a field is one int() of a slice and a run of
    zeros one find()."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    bits |= ord("0")
    return bits.tobytes()
