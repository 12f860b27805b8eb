"""MSB-first bit packing with order-0 exp-Golomb codes: `pack_bits` packs a
stream's (value, bit length) field columns in array passes of bounded size,
and `unpack_bits` turns a payload into the string of ASCII '0'/'1' bytes
that the decoder parses with one position of its own."""

import numpy as np

_CHUNK_FIELDS = 1 << 14  # fields per pass: bounds the per-bit temporaries


def pack_bits(values, lengths):
    """Pack fields MSB-first into bytes, zero-padding the last byte.

    `values` (int32) and `lengths` (uint8, each below 32) are same-shape
    arrays of fields in emission order, row-major; each value must fit in
    its length, and zero-length fields are dropped.  Fields go in chunks of
    _CHUNK_FIELDS; a chunk's bits past its last whole byte open the next.
    """
    values, lengths = np.ravel(values), np.ravel(lengths)
    out, carry = [], np.zeros(0, dtype=np.int32)
    for start in range(0, lengths.size, _CHUNK_FIELDS):
        v, n = values[start : start + _CHUNK_FIELDS], lengths[start : start + _CHUNK_FIELDS]
        v, n = v[n > 0], n[n > 0]
        # Each bit's shift within its field: length - 1 at the field's first
        # bit, then one less per bit.  int8 steps keep the per-bit arrays small.
        step = np.full(int(n.sum()), -1, dtype=np.int8)
        step[np.cumsum(n) - n] = n - 1
        bits = np.repeat(v, n)
        bits >>= np.cumsum(step, dtype=np.int8)
        bits &= 1
        bits = np.concatenate([carry, bits])
        whole = bits.size & ~7
        out.append(np.packbits(bits[:whole]).tobytes())
        carry = bits[whole:]
    out.append(np.packbits(carry).tobytes())
    return b"".join(out)


def unpack_bits(data):
    """The bits of `data`, MSB-first, as a bytes string of ASCII '0'/'1':
    bit i is `bits[i] & 1`, a field is one int() of a slice and a run of
    zeros one find()."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    bits |= ord("0")
    return bits.tobytes()
