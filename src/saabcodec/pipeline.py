"""Residual collection and mode-dependent kernel-bank training.

Residuals come from running the DCT-only codec over raw clips at the chosen
QPs and recording, per coded 8x8 block, the prediction residual of the
RD-selected intra mode.  Residuals are then pooled per kernel group and
each of the 24 kernels is learned from a seeded subsample of its pool.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .codec import StrategyConfig, encode_sequence
from .errors import InvalidInputError, StarvedGroupError
from .kernelio import KernelBank
from .linalg import BLOCK_SIZE
from .modes import N_MODES, TRAIN_GROUPS
from .transforms import learn_saab1

DEFAULT_QPS = (22, 27, 32, 37)
DEFAULT_SAMPLES_PER_KERNEL = 80_000
MIN_GROUP_SAMPLES = 64

CORPUS_MAGIC = b"SRSC"
CORPUS_VERSION = 1
_RECORD = struct.Struct("<BBHHHH")  # mode, qp, source, frame, x, y + 64 int16


@dataclass(frozen=True)
class ResidualRecord:
    residual: np.ndarray  # 8x8 int16, original - prediction
    mode: int
    qp: int
    source: int
    frame: int
    x: int
    y: int


def extract_residuals(clips, qps=DEFAULT_QPS):
    """Run the DCT-only encoder over luma clips and collect labelled residuals.

    `clips` is a list of frame lists (as from read_yuv); a record's source
    is its clip's index.  One record per coded block per QP, in raster
    order per frame.
    """
    cfg = StrategyConfig("dct_only")
    records = []
    for source, planes in enumerate(clips):
        if not planes:
            raise InvalidInputError(f"clip {source} has no frames")
        blocks_w = planes[0].shape[1] // BLOCK_SIZE
        for qp in qps:
            _, stats = encode_sequence(planes, qp, cfg, keep_residuals=True)
            records.extend(
                ResidualRecord(
                    residual=b.residual,
                    mode=b.mode,
                    qp=qp,
                    source=source,
                    frame=frame,
                    x=i % blocks_w,
                    y=i // blocks_w,
                )
                for frame, fs in enumerate(stats)
                for i, b in enumerate(fs.blocks)
            )
    return records


def save_residual_corpus(path, records):
    with open(path, "wb") as f:
        f.write(CORPUS_MAGIC + struct.pack("<II", CORPUS_VERSION, len(records)))
        for r in records:
            f.write(_RECORD.pack(r.mode, r.qp, r.source, r.frame, r.x, r.y))
            f.write(r.residual.astype("<i2").tobytes())


def load_residual_corpus(path):
    """Read a corpus file; InvalidInputError unless it is exactly its header
    and records and every record's mode exists."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 12 or buf[:4] != CORPUS_MAGIC:
        raise InvalidInputError("not a residual corpus file")
    version, count = struct.unpack_from("<II", buf, 4)
    if version != CORPUS_VERSION:
        raise InvalidInputError(f"unsupported corpus version {version}")
    if len(buf) != 12 + count * (_RECORD.size + 128):
        raise InvalidInputError(f"corpus size {len(buf)} does not match its {count} records")
    offset = 12
    records = []
    for _ in range(count):
        mode, qp, source, frame, x, y = _RECORD.unpack_from(buf, offset)
        if mode >= N_MODES:
            raise InvalidInputError(f"corpus record at byte {offset} has mode {mode}")
        offset += _RECORD.size
        residual = np.frombuffer(buf, dtype="<i2", count=64, offset=offset).reshape(8, 8)
        offset += 128
        records.append(
            ResidualRecord(
                residual=residual.copy(), mode=mode, qp=qp, source=source, frame=frame, x=x, y=y
            )
        )
    return records


def train_kernel_bank(
    records, samples_per_kernel=DEFAULT_SAMPLES_PER_KERNEL, seed=0, decimal_digits=None
):
    """Learn the 24 mode-dependent kernels from a residual corpus.

    Each kernel trains on residuals whose intra mode falls in its group of
    the codec's fixed table, subsampled deterministically to
    `samples_per_kernel`.  Raises StarvedGroupError listing every group
    with fewer than 64 residuals, and InvalidInputError for fewer than one
    sample per kernel, negative `decimal_digits`, or a rounded bank that
    KernelBank.validate rejects.
    """
    if samples_per_kernel < 1:
        raise InvalidInputError(f"samples per kernel must be 1 or more, got {samples_per_kernel}")
    if decimal_digits is not None and decimal_digits < 0:
        raise InvalidInputError(f"decimal digits must be 0 or more, got {decimal_digits}")
    modes = np.array([r.mode for r in records])
    starved = {
        k: group
        for k, group in enumerate(TRAIN_GROUPS)
        if np.count_nonzero(np.isin(modes, group)) < MIN_GROUP_SAMPLES
    }
    if starved:
        raise StarvedGroupError(starved)
    residuals = np.array([r.residual for r in records])  # int16, as recorded

    def pools():
        for k, group in enumerate(TRAIN_GROUPS):
            # the mask keeps record order, which the seeded subsample depends on
            pool = residuals[np.isin(modes, group)]
            if pool.shape[0] > samples_per_kernel:
                rng = np.random.default_rng([seed, k])
                idx = np.sort(rng.choice(pool.shape[0], size=samples_per_kernel, replace=False))
                pool = pool[idx]
            yield pool

    # one pool at a time is drawn and reduced; the 24 kernels share one eigensolve
    kernels = learn_saab1(pools(), groups=TRAIN_GROUPS)
    meta = dict(
        seed=seed,
        samples_per_kernel=samples_per_kernel,
        decimal_digits=decimal_digits,
        record_count=len(records),
    )
    bank = KernelBank(kernels=tuple(kernels), meta=meta)
    if decimal_digits is not None:
        # rounding can zero whole rows, which no loaded bank may have
        bank = bank.rounded(decimal_digits).validate()
    return bank
