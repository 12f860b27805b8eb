"""Binary container for the 24-kernel bank.

Exact byte layout is documented in docs/FORMATS.md.  Serialization is fully
deterministic (little-endian float64, sorted JSON metadata), so a training
run with a fixed seed produces a bitwise-identical bank file.  The bank is
the one place that writes and checks a kernel record's head: it follows
from the kernel's index in the fixed mode table and the metadata's
`decimal_digits`, and a reader requires it byte for byte.  A bank's kernel
arrays are its own and read-only, so its digest and validation run once.
"""

import hashlib
import json
from dataclasses import dataclass, replace
import struct

import numpy as np

from .errors import InvalidInputError
from .linalg import VEC_LEN
from .modes import APPLY_MAP, N_KERNELS, TRAIN_GROUPS
from .transforms import SaabKernel

BANK_MAGIC = b"SBNK"
KERNEL_MAGIC = b"SKRN"
BANK_VERSION = 1

# Bank header after the magic: version, kernel count, meta length.
_BANK_HEADER = struct.Struct("<III")
# Kernel record header after the magic: kind code, decimal digits, group length.
_KERNEL_HEADER = struct.Struct("<BhB")
_SAAB1_CODE = 2  # the one kind code a bank's records hold: one-stage Saab
MAX_DECIMAL_DIGITS = 2**15 - 1  # the header's i16, whose -1 marks an unrounded bank
_KERNEL_BODY_BYTES = (VEC_LEN + 1) * VEC_LEN * 8  # 64 matrix rows, then the bias, <f8

# The fixed mode table as every bank file's metadata restates it.
_STORED_TABLE = {"apply_map": list(APPLY_MAP), "train_groups": [list(g) for g in TRAIN_GROUPS]}

# The largest L1 norm of a unit 64-vector, sqrt(64): the codec's bound on
# level magnitudes assumes no kernel row exceeds it.
_ROW_L1_BOUND = 8 + 1e-9


def check_digits(decimal_digits):
    """Raise InvalidInputError unless a kernel record can store
    `decimal_digits`: an int in 0..MAX_DECIMAL_DIGITS."""
    if type(decimal_digits) is not int or not 0 <= decimal_digits <= MAX_DECIMAL_DIGITS:
        raise InvalidInputError(f"decimal digits must be in 0..{MAX_DECIMAL_DIGITS}, got {decimal_digits!r}")


def _record_head(k, decimal_digits):
    """The bytes kernel `k`'s record starts with in a bank rounded to
    `decimal_digits` (None: unrounded): magic, kind, digits, group."""
    group = TRAIN_GROUPS[k]
    digits = -1 if decimal_digits is None else decimal_digits
    return KERNEL_MAGIC + _KERNEL_HEADER.pack(_SAAB1_CODE, digits, len(group)) + bytes(group)


@dataclass(frozen=True)
class KernelBank:
    """The 24 mode-dependent Saab kernels plus provenance; modes.APPLY_MAP
    says which kernel serves each mode, and `meta["decimal_digits"]` (None:
    unrounded) is the one record of the digits every kernel was rounded to."""

    kernels: tuple
    meta: dict

    def __post_init__(self):
        # copies no other view can change, read-only, so digest() and validate() run once
        kernels = tuple(replace(k, matrix=np.array(k.matrix), bias=np.array(k.bias)) for k in self.kernels)
        for k in kernels:
            k.matrix.flags.writeable = k.bias.flags.writeable = False
        object.__setattr__(self, "kernels", kernels)

    def kernel_for_mode(self, mode):
        return self.kernels[APPLY_MAP[mode]]

    def to_bytes(self):
        if len(self.kernels) != N_KERNELS:  # the count only: a bank failing validate() may still be written
            raise InvalidInputError(f"expected {N_KERNELS} kernels, got {len(self.kernels)}")
        meta = dict(self.meta, **_STORED_TABLE)
        meta_bytes = json.dumps(meta, sort_keys=True).encode()
        parts = [BANK_MAGIC, _BANK_HEADER.pack(BANK_VERSION, len(self.kernels), len(meta_bytes)), meta_bytes]
        digits = self.meta.get("decimal_digits")
        for k, kernel in enumerate(self.kernels):
            parts += [_record_head(k, digits), np.vstack([kernel.matrix, kernel.bias]).astype("<f8").tobytes()]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buf):
        offset = 4 + _BANK_HEADER.size
        if len(buf) < offset or buf[:4] != BANK_MAGIC:
            raise InvalidInputError("not a kernel bank file")
        version, count, meta_len = _BANK_HEADER.unpack_from(buf, 4)
        if version != BANK_VERSION:
            raise InvalidInputError(f"unsupported bank version {version}")
        try:
            meta = json.loads(buf[offset : offset + meta_len].decode())
        except ValueError as e:  # bad UTF-8 or bad JSON
            raise InvalidInputError(f"unreadable bank metadata: {e}") from e
        if not isinstance(meta, dict):
            raise InvalidInputError("bank metadata is not a JSON object")
        if count != N_KERNELS:
            raise InvalidInputError(f"expected {N_KERNELS} kernel records, got {count}")
        digits = meta.get("decimal_digits")
        if digits is not None:
            check_digits(digits)
        offset += meta_len
        kernels = []
        for k in range(N_KERNELS):
            head = _record_head(k, digits)
            if buf[offset : offset + len(head)] != head:
                raise InvalidInputError(f"kernel record {k} does not start with its bank's record head")
            offset += len(head) + _KERNEL_BODY_BYTES
            if len(buf) < offset:
                raise InvalidInputError("truncated kernel record")
            rows = np.frombuffer(buf[offset - _KERNEL_BODY_BYTES : offset], "<f8").reshape(-1, VEC_LEN)
            kernels.append(SaabKernel(matrix=rows[:-1], bias=rows[-1]))  # the bank copies them
        if offset != len(buf):
            raise InvalidInputError(f"{len(buf) - offset} bytes after the last kernel record")
        if {key: meta.pop(key, None) for key in _STORED_TABLE} != _STORED_TABLE:
            raise InvalidInputError("bank mode table is not the codec's fixed table")
        return cls(kernels=tuple(kernels), meta=meta)

    def digest(self):
        """16-byte content digest the bitstream header pins, hashed once per metadata."""
        meta = json.dumps(self.meta, sort_keys=True)
        if self.__dict__.get("_digest", (None,))[0] != meta:
            object.__setattr__(self, "_digest", (meta, hashlib.sha256(self.to_bytes()).digest()[:16]))
        return self._digest[1]

    def save(self, path):
        data = self.to_bytes()  # before the file exists, so a failure leaves none
        with open(path, "wb") as f:
            f.write(data)

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            return cls.from_bytes(f.read()).validate()

    def rounded(self, decimal_digits):
        """Bank with every kernel's matrix and bias rounded to `decimal_digits`
        decimal digits (check_digits) and used as-is, without
        re-orthonormalization, to mirror reduced-precision kernel storage."""
        check_digits(decimal_digits)
        meta = dict(self.meta, decimal_digits=decimal_digits)
        if decimal_digits >= 16:
            # beyond float64 precision rounding is a no-op; np.round's scale-and-
            # unscale would actually perturb the last bits here
            return replace(self, meta=meta)
        kernels = tuple(
            replace(k, matrix=np.round(k.matrix, decimal_digits), bias=np.round(k.bias, decimal_digits))
            for k in self.kernels
        )
        return replace(self, kernels=kernels, meta=meta)

    def validate(self):
        """Return self, or raise InvalidInputError unless the bank has 24
        64x64 kernels whose rows are nonzero with an L1 norm of at most 8."""
        if "_valid" in self.__dict__:  # checked before
            return self
        if len(self.kernels) != N_KERNELS:
            raise InvalidInputError(f"expected {N_KERNELS} kernels, got {len(self.kernels)}")
        for i, k in enumerate(self.kernels):
            if k.matrix.shape != (VEC_LEN, VEC_LEN):
                raise InvalidInputError("bad kernel matrix shape")
            l1 = np.abs(k.matrix).sum(axis=1)
            if not np.all((l1 > 0) & (l1 <= _ROW_L1_BOUND)):  # NaN fails both
                raise InvalidInputError(f"kernel {i} has a row that is zero or has an L1 norm above 8")
        object.__setattr__(self, "_valid", True)
        return self
