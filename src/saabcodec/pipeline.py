"""Residual collection and mode-dependent kernel-bank training.

Residuals come from running the DCT-only codec over raw clips at the chosen
QPs and recording, per coded 8x8 block, the prediction residual of the
RD-selected intra mode.  Residuals are then pooled per kernel group and
each of the 24 kernels is learned from a seeded subsample of its pool.
"""

import struct

import numpy as np

# encode_sequence is unused here: bench/spans.py's WRAP_POINTS patch the name in this module.
from .codec import HEADER_U16_MAX, StrategyConfig, _search_sequence, check_planes, check_qps, encode_sequence  # noqa
from .errors import InvalidInputError, StarvedGroupError
from .kernelio import KernelBank, check_digits
from .linalg import BLOCK_SIZE
from .modes import N_MODES, TRAIN_GROUPS
from .transforms import learn_saab1

DEFAULT_QPS = (22, 27, 32, 37)
DEFAULT_SAMPLES_PER_KERNEL = 80_000
MIN_GROUP_SAMPLES = 64

CORPUS_MAGIC = b"SRSC"
CORPUS_VERSION = 1
_CORPUS_HEADER = 12  # magic, then version and record count as <II
# One corpus record, packed as the file stores it: the block's labels, then
# its 8x8 residual (original - prediction), row-major.
RESIDUAL_DTYPE = np.dtype(
    [
        ("mode", "u1"),
        ("qp", "u1"),
        ("source", "<u2"),
        ("frame", "<u2"),
        ("x", "<u2"),
        ("y", "<u2"),
        ("residual", "<i2", (BLOCK_SIZE, BLOCK_SIZE)),
    ]
)


def extract_residuals(clips, qps=DEFAULT_QPS):
    """Run the DCT-only encoder's RD search over luma clips and collect labelled residuals.

    `clips` lists frame lists (as from read_yuv) or (frames, h, w) stacks; a
    record's source is its clip's index.  Returns a np.recarray of
    RESIDUAL_DTYPE rows, one per coded block per QP, in raster order per
    frame.  Raises InvalidInputError, before encoding, for a clip check_planes
    or QPs check_qps rejects, or a source, frame or block index too large.
    """
    check_qps(qps)
    groups = {}  # block grid -> the sources of that frame size
    for source, planes in enumerate(clips):
        n_frames, h, w = check_planes(planes)
        last = dict(source=source, frame=n_frames - 1, y=h // BLOCK_SIZE - 1, x=w // BLOCK_SIZE - 1)
        for name, value in last.items():
            if value > np.iinfo(RESIDUAL_DTYPE[name]).max:
                raise InvalidInputError(f"{name} index {value} does not fit a corpus record")
        groups.setdefault((h // BLOCK_SIZE, w // BLOCK_SIZE), []).append(source)
    cfg = StrategyConfig("dct_only")
    parts = {}
    for grid, sources in groups.items():
        # Frames are independent intra pictures, so the clips of one frame size
        # are coded together, one call per QP of at most a header's u16 frame count.
        planes = [p for s in sources for p in clips[s]]
        ends = np.cumsum([len(clips[s]) for s in sources]) * grid[0] * grid[1]
        for qp in qps:
            chunks = range(0, len(planes), HEADER_U16_MAX)
            blocks = np.concatenate([_search_sequence(planes[i : i + HEADER_U16_MAX], qp, cfg)[0] for i in chunks])
            for source, part_blocks in zip(sources, np.split(blocks, ends[:-1])):
                part = parts[source, qp] = np.empty(len(part_blocks), dtype=RESIDUAL_DTYPE)
                part["mode"], part["qp"], part["source"] = part_blocks["mode"], qp, source
                part["frame"], part["y"], part["x"] = np.indices((len(clips[source]), *grid)).reshape(3, -1)
                part["residual"] = part_blocks["residual"]
    order = [parts[source, qp] for source in range(len(clips)) for qp in qps]
    return np.concatenate([np.empty(0, RESIDUAL_DTYPE)] + order).view(np.recarray)


def _as_records(records):
    """A 1-D array or list of RESIDUAL_DTYPE rows as an array, else InvalidInputError: a cast would wrap."""
    try:
        records = np.asarray(records)
    except ValueError as e:
        raise InvalidInputError(f"corpus records are not RESIDUAL_DTYPE rows: {e}") from None
    if records.dtype != RESIDUAL_DTYPE or records.ndim != 1:
        raise InvalidInputError(f"{records.ndim}-D records of dtype {records.dtype} are not RESIDUAL_DTYPE rows")
    return records


def save_residual_corpus(path, records):
    """Write RESIDUAL_DTYPE records (_as_records) as a corpus file."""
    records = _as_records(records)
    with open(path, "wb") as f:
        f.write(CORPUS_MAGIC + struct.pack("<II", CORPUS_VERSION, len(records)))
        f.write(records.tobytes())


def load_residual_corpus(path):
    """Read a corpus file into a read-only RESIDUAL_DTYPE np.recarray; InvalidInputError
    unless it is exactly its header and records and every record's mode exists."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < _CORPUS_HEADER or buf[:4] != CORPUS_MAGIC:
        raise InvalidInputError("not a residual corpus file")
    version, count = struct.unpack_from("<II", buf, 4)
    if version != CORPUS_VERSION:
        raise InvalidInputError(f"unsupported corpus version {version}")
    if len(buf) != _CORPUS_HEADER + count * RESIDUAL_DTYPE.itemsize:
        raise InvalidInputError(f"corpus size {len(buf)} does not match its {count} records")
    records = np.frombuffer(buf, dtype=RESIDUAL_DTYPE, count=count, offset=_CORPUS_HEADER)
    bad = np.flatnonzero(records["mode"] >= N_MODES)
    if bad.size:
        offset = _CORPUS_HEADER + int(bad[0]) * RESIDUAL_DTYPE.itemsize
        raise InvalidInputError(f"corpus record at byte {offset} has mode {records['mode'][bad[0]]}")
    return records.view(np.recarray)


def train_kernel_bank(
    records, samples_per_kernel=DEFAULT_SAMPLES_PER_KERNEL, seed=0, decimal_digits=None
):
    """Learn the 24 mode-dependent kernels from a residual corpus.

    Each kernel trains on residuals whose intra mode falls in its group of
    the codec's fixed table, subsampled deterministically to
    `samples_per_kernel`.  Raises StarvedGroupError listing every group
    with fewer than 64 residuals, and InvalidInputError for records that
    _as_records rejects, fewer than one sample per kernel, a negative `seed`,
    `decimal_digits` that check_digits rejects, or a rounded bank that
    KernelBank.validate rejects.
    """
    if samples_per_kernel < 1:
        raise InvalidInputError(f"samples per kernel must be 1 or more, got {samples_per_kernel}")
    if seed < 0:
        raise InvalidInputError(f"seed {seed} is negative")
    if decimal_digits is not None:
        check_digits(decimal_digits)
    records = _as_records(records)
    modes = records["mode"]
    starved = {
        k: group
        for k, group in enumerate(TRAIN_GROUPS)
        if np.count_nonzero(np.isin(modes, group)) < MIN_GROUP_SAMPLES
    }
    if starved:
        raise StarvedGroupError(starved)

    def pools():
        for k, group in enumerate(TRAIN_GROUPS):
            # the mask keeps record order, which the seeded subsample depends on
            pool = records["residual"][np.isin(modes, group)]  # int16, as recorded
            if pool.shape[0] > samples_per_kernel:
                rng = np.random.default_rng([seed, k])
                idx = np.sort(rng.choice(pool.shape[0], size=samples_per_kernel, replace=False))
                pool = pool[idx]
            yield pool

    # one pool at a time is drawn and reduced; the 24 kernels share one eigensolve
    kernels = learn_saab1(pools(), stacked=True)
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
