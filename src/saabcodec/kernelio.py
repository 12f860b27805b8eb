"""Binary container for learned kernels and 24-kernel banks.

Exact byte layout is documented in docs/FORMATS.md.  Serialization is fully
deterministic (little-endian float64, sorted JSON metadata), so a training
run with a fixed seed produces a bitwise-identical bank file.
"""

import hashlib
import json
from dataclasses import dataclass, replace
import struct

import numpy as np

from .errors import InvalidInputError
from .linalg import VEC_LEN
from .modes import APPLY_MAP, N_KERNELS, TRAIN_GROUPS
from .transforms import SaabKernel, round_kernel

BANK_MAGIC = b"SBNK"
KERNEL_MAGIC = b"SKRN"
BANK_VERSION = 1

# Bank header after the magic: version, kernel count, meta length.
_BANK_HEADER = struct.Struct("<III")
# Kernel record header after the magic: kind code, decimal digits, group length.
_KERNEL_HEADER = struct.Struct("<BhB")
MAX_DECIMAL_DIGITS = 2**15 - 1  # the header's i16, whose -1 marks an unrounded kernel
_KERNEL_BODY_BYTES = (VEC_LEN * VEC_LEN + VEC_LEN) * 8  # matrix and bias, <f8

_KIND_CODES = {"dct": 0, "klt": 1, "saab1": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

# The fixed mode table as every bank file's metadata restates it.
_STORED_TABLE = {"apply_map": list(APPLY_MAP), "train_groups": [list(g) for g in TRAIN_GROUPS]}

# The largest L1 norm of a unit 64-vector, sqrt(64): the codec's bound on
# level magnitudes assumes no kernel row exceeds it.
_ROW_L1_BOUND = 8 + 1e-9


def check_digits(decimal_digits):
    """Raise InvalidInputError unless a kernel record can store
    `decimal_digits`: 0..MAX_DECIMAL_DIGITS."""
    if not 0 <= decimal_digits <= MAX_DECIMAL_DIGITS:
        raise InvalidInputError(f"decimal digits must be in 0..{MAX_DECIMAL_DIGITS}, got {decimal_digits}")


def kernel_to_bytes(kernel):
    if kernel.kind not in _KIND_CODES:
        raise InvalidInputError(f"cannot serialize kernel kind {kernel.kind!r}")
    group = tuple(kernel.trained_mode_group)
    digits = -1 if kernel.decimal_digits is None else kernel.decimal_digits
    head = KERNEL_MAGIC + _KERNEL_HEADER.pack(_KIND_CODES[kernel.kind], digits, len(group))
    head += bytes(group)
    body = kernel.matrix.astype("<f8").tobytes() + kernel.bias.astype("<f8").tobytes()
    return head + body


def kernel_from_bytes(buf, offset=0):
    if buf[offset : offset + 4] != KERNEL_MAGIC or len(buf) < offset + 4 + _KERNEL_HEADER.size:
        raise InvalidInputError("bad kernel record magic or truncated record")
    kind_code, digits, group_len = _KERNEL_HEADER.unpack_from(buf, offset + 4)
    if kind_code not in _KIND_NAMES:
        raise InvalidInputError(f"unknown kernel kind code {kind_code}")
    offset += 4 + _KERNEL_HEADER.size
    group = tuple(buf[offset : offset + group_len])
    offset += group_len
    if len(buf) < offset + _KERNEL_BODY_BYTES:
        raise InvalidInputError("truncated kernel record")
    matrix = np.frombuffer(buf, dtype="<f8", count=VEC_LEN * VEC_LEN, offset=offset)
    offset += VEC_LEN * VEC_LEN * 8
    bias = np.frombuffer(buf, dtype="<f8", count=VEC_LEN, offset=offset)
    offset += VEC_LEN * 8
    kernel = SaabKernel(
        matrix=matrix.reshape(VEC_LEN, VEC_LEN).copy(),
        bias=bias.copy(),
        kind=_KIND_NAMES[kind_code],
        trained_mode_group=group,
        decimal_digits=None if digits < 0 else digits,
    )
    return kernel, offset


@dataclass(frozen=True)
class KernelBank:
    """The 24 mode-dependent Saab kernels plus provenance; modes.APPLY_MAP
    says which kernel serves each mode."""

    kernels: tuple
    meta: dict

    def kernel_for_mode(self, mode):
        return self.kernels[APPLY_MAP[mode]]

    def to_bytes(self):
        meta = dict(self.meta, **_STORED_TABLE)
        meta_bytes = json.dumps(meta, sort_keys=True).encode()
        out = BANK_MAGIC + _BANK_HEADER.pack(BANK_VERSION, len(self.kernels), len(meta_bytes))
        out += meta_bytes
        for kernel in self.kernels:
            out += kernel_to_bytes(kernel)
        return out

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
        offset += meta_len
        kernels = []
        for _ in range(count):
            kernel, offset = kernel_from_bytes(buf, offset)
            kernels.append(kernel)
        if offset != len(buf):
            raise InvalidInputError(f"{len(buf) - offset} bytes after the last kernel record")
        if {key: meta.pop(key, None) for key in _STORED_TABLE} != _STORED_TABLE:
            raise InvalidInputError("bank mode table is not the codec's fixed table")
        return cls(kernels=tuple(kernels), meta=meta)

    def digest(self):
        """16-byte content digest; the bitstream header pins this."""
        return hashlib.sha256(self.to_bytes()).digest()[:16]

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
        decimal digits (check_digits)."""
        check_digits(decimal_digits)
        meta = dict(self.meta)
        meta["decimal_digits"] = decimal_digits
        return replace(
            self,
            kernels=tuple(round_kernel(k, decimal_digits) for k in self.kernels),
            meta=meta,
        )

    def validate(self):
        """Return self, or raise InvalidInputError unless the bank has 24
        64x64 kernels whose rows are nonzero with an L1 norm of at most 8."""
        if len(self.kernels) != N_KERNELS:
            raise InvalidInputError(f"expected {N_KERNELS} kernels, got {len(self.kernels)}")
        for i, k in enumerate(self.kernels):
            if k.matrix.shape != (VEC_LEN, VEC_LEN):
                raise InvalidInputError("bad kernel matrix shape")
            l1 = np.abs(k.matrix).sum(axis=1)
            if not np.all((l1 > 0) & (l1 <= _ROW_L1_BOUND)):  # NaN fails both
                raise InvalidInputError(f"kernel {i} has a row that is zero or has an L1 norm above 8")
        return self
