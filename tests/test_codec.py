from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from saabcodec import codec, video
from saabcodec.bitstream import pack_bits, unpack_bits
from saabcodec.errors import BitstreamError, InvalidInputError
from saabcodec.metrics import qp_to_lambda, qp_to_qstep
from saabcodec.transforms import DCT_64
import reference_search
from test_bitstream import _BitByBitReader


def test_quantizer_deadzone():
    q = 10.0
    # level = sign(y) * floor(|y|/Q + 1/3), in the coefficients' precision
    want = np.array([0, 0, 1, 1, 1, -1, -1, 3])
    for dtype in (np.float64, np.float32):
        y = np.array([0.0, 3.3, 6.7, 9.9, 10.0, -6.7, -13.4, 26.8], dtype=dtype)
        got = codec.quantize(y, q)
        assert got.dtype == dtype and np.array_equal(got, want)
    # +-0.0, each deadzone boundary |y|/Q + 1/3 = k for k = 1..3239 (the
    # largest level) with its float neighbours, and 3239 * Q itself
    for qp in (0, 22, 51):
        q = qp_to_qstep(qp)
        bounds = (np.arange(1, 3240) - 1 / 3) * q
        for dtype in (np.float64, np.float32):
            mags = np.concatenate([[0.0, 3239 * q], bounds]).astype(dtype)
            mags = np.concatenate([mags, np.nextafter(mags, 0), np.nextafter(mags, np.inf)])
            y = np.concatenate([mags, -mags])
            got = codec.quantize(y, q)
            want = np.sign(y) * np.floor(np.abs(y) / dtype(q) + dtype(codec.DEADZONE))
            assert got.dtype == dtype and np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(y))  # -0.0 for a negative y, as copysign
            assert np.abs(got).max() == 3239


@pytest.mark.parametrize("q_step", [0.0, -4.0, float("nan"), "a", None])
def test_quantizer_rejects_a_step_that_is_not_positive(q_step):
    for call in (codec.quantize, codec.dequantize):
        with pytest.raises(InvalidInputError, match="q_step"):
            call(np.ones(3), q_step)


def test_dequantize_reconstruction_levels():
    lv = np.array([0, 1, -2, 5])
    assert np.allclose(codec.dequantize(lv, 4.0), [0.0, 4.0, -8.0, 20.0])


def test_zigzag_is_permutation():
    assert sorted(codec.ZIGZAG.tolist()) == list(range(64))
    # the candidate search's scan-ordered DCT rows give the zigzag-scanned levels
    assert np.array_equal(codec.DCT_SCAN, DCT_64[codec.ZIGZAG])
    res = np.random.default_rng(8).integers(-255, 256, size=(2000, 64)).astype(np.float64)
    for qp in (0, 22, 37, 51):
        q = qp_to_qstep(qp)
        want = codec.quantize(res @ DCT_64.T, q)[..., codec.ZIGZAG]
        assert np.array_equal(codec.quantize(res @ codec.DCT_SCAN.T, q), want)


def _roundtrip_levels(levels):
    values, lengths = codec.encode_levels(levels[None])
    out = np.zeros(64, dtype=np.int64)
    end = codec.decode_levels(unpack_bits(pack_bits(values, lengths)), 0, out)
    assert end == int(lengths.sum())
    return out, end


# A nonzero level of every exp-Golomb code length the decoder accepts:
# |level| in [2**(b-1), 2**b) for b = 1..12, so |level| < 2**12.
_CODABLE_LEVEL = st.builds(
    lambda mag, negative: -mag if negative else mag,
    st.integers(1, 12).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)),
    st.booleans(),
)


@st.composite
def _level_rows(draw):
    """64 scan-order levels with 0 to 64 of them significant."""
    n = draw(st.integers(0, 64), label="significant")
    positions = draw(st.permutations(range(64)), label="positions")[:n]
    levels = np.zeros(64, dtype=np.int64)
    levels[positions] = draw(st.lists(_CODABLE_LEVEL, min_size=n, max_size=n), label="levels")
    return levels


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_level_rows(), min_size=1, max_size=4))
@example(rows=[np.zeros(64, dtype=np.int64), np.tile([4095, -4095], 32)])
@example(rows=[np.full(64, -4095)])  # the largest sum of 4**position
@example(rows=[np.eye(64, dtype=np.int64)[63]])
@example(rows=[np.eye(64, dtype=np.int64)[0], -np.eye(64, dtype=np.int64)[0]])
def test_level_coding_roundtrip_and_cost(rows):
    """The one level coder, stated as a derivation: the search's batched
    level_bit_cost of (C, k, 64) float32 levels equals the integer batch's,
    which equals the per-row cost, which equals the row sum of the bit
    lengths encode_levels gives, which equals the bits decode_levels
    consumes from the packed rows, and decode_levels returns the levels."""
    batch = np.array(rows)
    per_row = [codec.level_bit_cost(levels) for levels in batch]
    levels32 = batch.astype(np.float32)
    search = np.stack([levels32, -levels32])  # -0.0 for a zero level, as quantize gives
    assert codec.level_bit_cost(search).tolist() == [per_row, per_row]
    assert codec.level_bit_cost(batch).tolist() == per_row
    values, lengths = codec.encode_levels(batch)
    assert lengths.sum(axis=1).tolist() == per_row
    bits, p = unpack_bits(pack_bits(values, lengths)), 0
    out = np.zeros(batch.shape, dtype=np.int16)  # one buffer, as the decoder's
    rows = memoryview(out.reshape(-1))
    for k, (levels, cost) in enumerate(zip(batch, per_row)):
        end = codec.decode_levels(bits, p, rows[64 * k : 64 * k + 64])
        assert np.array_equal(out[k], levels)
        assert end - p == cost
        p = end


def _decode_levels_reference(reader):
    """Reference level parser: one _BitByBitReader call per syntax element."""
    levels = np.zeros(64, dtype=np.int64)
    if reader.read_bit() == 0:
        return levels
    last = reader.read_bits(6)
    for pos in range(last, -1, -1):
        sig = 1 if pos == last else reader.read_bit()
        if sig:
            mag = reader.read_ue() + 1
            if mag >= 1 << 12:
                raise BitstreamError(f"level magnitude {mag} out of range", bit_offset=reader.position)
            levels[pos] = -mag if reader.read_bit() else mag
    return levels


@st.composite
def _level_payloads(draw):
    """The level code of 6 random blocks, intact, truncated, with one bit
    flipped, or replaced by random bytes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    blocks = np.zeros((6, 64), dtype=np.int64)
    for levels in blocks:
        n = int(rng.integers(0, 20))
        levels[rng.choice(64, size=n, replace=False)] = rng.geometric(0.2, size=n) * rng.choice([-1, 1], size=n)
    data = pack_bits(*codec.encode_levels(blocks))
    how = draw(st.sampled_from(["intact", "truncate", "flip", "random"]), label="how")
    if how == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1), label="length")]
    elif how == "flip":
        bit = draw(st.integers(0, 8 * len(data) - 1), label="bit")
        data = bytearray(data)
        data[bit // 8] ^= 1 << (bit % 8)
    elif how == "random":
        data = draw(st.binary(max_size=64), label="data")
    return bytes(data)


@settings(max_examples=200, deadline=None)
# An all-zero block, then a block whose cbf and last position 0 (0x40 in
# all) put its exp-Golomb prefix at bit 8 and at the 64-zero limit: cut off,
# runaway, the longest code (magnitude 2**64, out of range), cut-off code.
@example(data=b"\x40" + bytes(8))
@example(data=b"\x40" + bytes(9))
@example(data=b"\x40" + bytes(8) + b"\x80" + bytes(8))
@example(data=b"\x40" + bytes(8) + b"\x80" + bytes(7))
# The one-bit paths: a |level| 1 code as the last bit, its sign cut off
# (cbf, last position 0, then 1); a significance 1 as the last bit (last
# position 4 holds -2, position 3 +1, position 1's level is cut off); a sign
# as the last bit above position 0 (position 5 holds +4, position 4 -1); and
# 64 consecutive +-1 levels.
@example(data=b"\x81")
@example(data=b"\x88\xb9")
@example(data=b"\x8a\x47")
@example(data=pack_bits(*codec.encode_levels(np.where(np.arange(64) % 3, 1, -1)[None])))
@given(data=_level_payloads())
def test_level_parser_matches_reference(data):
    """decode_levels over a run of 6 coded blocks, intact or damaged,
    returns the reference parser's levels and positions and fails with its
    message and bit offset."""
    bits, p, reference = unpack_bits(data), 0, _BitByBitReader(data)
    for _ in range(6):
        try:
            want = _decode_levels_reference(reference)
        except BitstreamError as e:
            with pytest.raises(BitstreamError) as got:
                codec.decode_levels(bits, p, np.zeros(64, dtype=np.int64))
            assert (str(got.value), got.value.bit_offset) == (str(e), e.bit_offset)
            return
        got = np.zeros(64, dtype=np.int64)
        p = codec.decode_levels(bits, p, got)
        assert np.array_equal(got, want)
        assert p == reference.position


def _parse_stream_reference(data, cfg):
    """Reference parse of a stream's payload into CODED_DTYPE rows, one
    _BitByBitReader call per syntax element, with the decoder's checks."""
    info = codec.stream_info(data)
    payload = data[codec._HEADER.size :]
    reader = _BitByBitReader(payload)
    rows = np.zeros(info["frames"] * (info["width"] // 8) * (info["height"] // 8), dtype=codec.CODED_DTYPE)
    for i in range(len(rows)):
        start = reader.position
        mode = reader.read_bits(codec.MODE_BITS)
        if mode >= 35:
            raise BitstreamError(f"invalid mode {mode}", bit_offset=reader.position)
        rows["mode"][i] = mode
        rows["saab"][i] = reader.read_bit() if cfg.flag[mode] else not cfg.dct_ok[mode]
        rows["levels"][i] = _decode_levels_reference(reader)
        rows["bits"][i] = reader.position - start
    end = reader.position
    if len(payload) != (end + 7) // 8:
        raise BitstreamError("trailing bytes after the last block", bit_offset=end)
    if reader.read_bits(-end % 8):
        raise BitstreamError("nonzero padding bits after the last block", bit_offset=end)
    return rows


@pytest.fixture(scope="module")
def s3_stream(tiny_bank, tiny_clip):
    """A 1-frame QP 22 s3 stream of tiny_clip and the encoder's block table."""
    stream, (stats,) = codec.encode_sequence(tiny_clip[:1], 22, codec.StrategyConfig("s3", tiny_bank))
    return stream, stats.blocks


@settings(max_examples=200, deadline=None)
@given(how=st.sampled_from(["intact", "truncate", "flip"]), damage=st.data())
def test_stream_parser_matches_reference(how, damage, s3_stream, tiny_bank):
    """decode_sequence on a 1-frame s3 stream, intact, truncated or with one
    payload bit flipped, returns the reference parse's table or fails with
    its message and bit offset."""
    stream, blocks = s3_stream
    head = codec._HEADER.size
    if how == "truncate":
        # any length, or one that ends the payload just after a mode or a flag
        starts = np.cumsum(blocks.bits) - blocks.bits
        ends = np.concatenate([starts + 6, starts + 7])
        cuts = (head + ends[ends % 8 == 0] // 8).tolist()
        lengths = st.integers(head, len(stream) - 1)
        if cuts:
            lengths |= st.sampled_from(cuts)
        stream = stream[: damage.draw(lengths, label="length")]
    elif how == "flip":
        bit = damage.draw(st.integers(8 * head, 8 * len(stream) - 1), label="bit")
        stream = bytearray(stream)
        stream[bit // 8] ^= 1 << (bit % 8)
        stream = bytes(stream)
    assume(8 * (len(stream) - head) >= 7 * (64 // 8) * (48 // 8))  # else "payload too short"
    try:
        want = _parse_stream_reference(stream, codec.StrategyConfig("s3", tiny_bank))
    except BitstreamError as e:
        with pytest.raises(BitstreamError) as got:
            codec.decode_sequence(stream, tiny_bank)
        assert (str(got.value), got.value.bit_offset) == (str(e), e.bit_offset)
        return
    _, (stats,) = codec.decode_sequence(stream, tiny_bank)
    for name in codec.CODED_DTYPE.names:
        assert np.array_equal(stats.blocks[name], want[name]), name


@pytest.mark.parametrize("strategy,count", zip(codec.STRATEGIES, (35, 35, 60, 70)))
def test_candidate_list(strategy, count, tiny_bank):
    """A strategy's candidates are the (transform, mode) pairs its masks
    allow, DCT first and each transform's in mode order; cand_index inverts
    the list, rows[cand_rows] gives each pair's analysis rows, read-only, and
    the search's kernel rows are the kernel pairs' rows in float32."""
    cfg = codec.StrategyConfig(strategy, tiny_bank)
    allowed = np.array([cfg.dct_ok, cfg.saab_ok])
    saab, mode = np.nonzero(allowed)
    assert np.array_equal(cfg.cand_saab, saab) and np.array_equal(cfg.cand_mode, mode)
    assert np.all(np.diff(cfg.cand_saab) >= 0)  # DCT pairs first
    # the bench's codec.candidates_per_block counts the masks
    assert len(cfg.cand_mode) == count == int(cfg.dct_ok.sum() + cfg.saab_ok.sum())
    assert np.array_equal(cfg.cand_index == -1, ~allowed)
    assert np.array_equal(cfg.cand_index[saab, mode], np.arange(count))
    matrices = cfg.gather(np.arange(count))
    assert matrices.shape == (count, 64, 64)
    for matrix, s, m in zip(matrices, saab, mode):
        assert np.array_equal(matrix, tiny_bank.kernel_for_mode(m).matrix if s else codec.DCT_SCAN)
    # rows: one read-only stack, DCT_SCAN then the bank's kernels; the search's runs: one
    # DCT_SCAN for the DCT pairs, then the kernel pairs' rows, in float32
    assert not any(rows.flags.writeable for rows in (cfg.rows,) + tuple(rows for _, _, rows in cfg.search))
    assert cfg.rows.shape == (1 if strategy == "dct_only" else 25, 64, 64)
    assert np.array_equal(cfg.rows[0], codec.DCT_SCAN) and cfg.rows.dtype == np.float64
    assert np.array_equal(np.concatenate([rows for _, _, rows in cfg.search]), matrices.astype(np.float32))
    n_dct = np.count_nonzero(saab == 0)
    assert [c for c, _, _ in cfg.search] == [slice(n_dct), slice(n_dct, None)][: len(cfg.search)]
    assert cfg.search[0][2].strides[0] == 0  # one DCT_SCAN
    for c, modes, _ in cfg.search:  # None: the 35 modes in order
        assert np.array_equal(cfg.cand_mode[c], np.arange(35) if modes is None else modes)
    if strategy == "dct_only":  # needs no bank
        assert np.array_equal(codec.StrategyConfig(strategy).gather(np.arange(count)), matrices)


@pytest.mark.parametrize("case", ["23-kernels", "25-kernels", "63x64-matrix"])
def test_bad_in_memory_bank_rejected(case, tiny_bank):
    kernels = tiny_bank.kernels
    kernels = {
        "23-kernels": kernels[:23],
        "25-kernels": kernels + kernels[:1],
        "63x64-matrix": (replace(kernels[0], matrix=kernels[0].matrix[:63]),) + kernels[1:],
    }[case]
    if case == "63x64-matrix":  # the bank checks its matrices' shape when it is built
        with pytest.raises(InvalidInputError):
            replace(tiny_bank, kernels=kernels)
        return
    bad = replace(tiny_bank, kernels=kernels)
    for _ in range(2):  # a failed check is not cached as a pass
        with pytest.raises(InvalidInputError):
            codec.StrategyConfig("s3", bad)


@pytest.mark.parametrize("bank", ["x", 0, b"SKB1", ()], ids=["str", "int", "bytes", "tuple"])
def test_bank_of_another_kind_rejected(bank, tiny_clip):
    for strategy in codec.STRATEGIES:  # dct_only too, though it drops its bank
        with pytest.raises(InvalidInputError, match="KernelBank or None"):
            codec.StrategyConfig(strategy, bank)
    stream, _ = codec.encode_sequence(tiny_clip[:1], 37, codec.StrategyConfig("dct_only"))
    with pytest.raises(InvalidInputError, match="KernelBank or None"):
        codec.decode_sequence(stream, bank)


@pytest.mark.parametrize(
    "data", [None, "SBVC", 40, [83, 66, 86, 67], np.zeros(64, np.uint8)],
    ids=["None", "str", "int", "list", "ndarray"],
)
def test_stream_of_another_kind_rejected(data):
    for parse in (codec.stream_info, codec.decode_sequence):
        with pytest.raises(InvalidInputError, match="bytes, bytearray or memoryview"):
            parse(data)


def test_every_bytes_like_stream_decodes(tiny_clip):
    stream, _ = codec.encode_sequence(tiny_clip[:1], 37, codec.StrategyConfig("dct_only"))
    want, _ = codec.decode_sequence(stream)
    for data in (bytearray(stream), memoryview(stream)):
        assert codec.stream_info(data) == codec.stream_info(stream)
        got, _ = codec.decode_sequence(data)
        assert got[0].tobytes() == want[0].tobytes()


def _reconstruct_reference(preds, levels_scan, matrices, q_step):
    """Reference: the normative reconstruction of each block, every sample a
    sequential sum over the 64 scan positions of (analysis row entry) x
    (dequantized level), each product rounded before it is added, then the
    prediction added.  Elementwise over the blocks, so each block's sums are
    its own."""
    deq = np.asarray(levels_scan, dtype=np.float64) * q_step
    acc = np.zeros(deq.shape)
    for i in range(64):
        acc = acc + matrices[:, i, :] * deq[:, i, None]
    return np.clip(np.rint(acc + preds), 0, 255).astype(np.int32)


def test_batched_reconstruction_matches_per_block_formula():
    """One stacked _reconstruct call over 2000 DCT and kernel blocks, and
    calls of wavefront batch size, equal the normative sequential sum byte
    for byte, with a different kernel per mode."""
    rng = np.random.default_rng(6)
    kernels = np.linalg.qr(rng.standard_normal((35, 64, 64)))[0]
    # Row 0 of each kernel is the constant 1/8, as the DCT's DC row is.  The
    # second half of the blocks has a level of 2**45 there and a prediction
    # that cancels it, so each sum rounds at 2**-7 or coarser and a change
    # in summation order shows in the bytes.
    kernels[:, 0, :] = 0.125
    n = 2000
    modes = rng.integers(0, 35, size=n)
    uses_saab = rng.random(n) < 0.5
    # each block's analysis rows: DCT_SCAN for a DCT block, else its mode's kernel
    matrices = np.concatenate([codec.DCT_SCAN[None], kernels])[np.where(uses_saab, modes + 1, 0)]
    for qp in (0, 22, 37, 51):
        q = qp_to_qstep(qp)
        # levels of residuals within about +-200, a quarter of them nonzero
        top = max(1, int(200 / q))
        levels = rng.integers(-top, top + 1, size=(n, 64)) * (rng.random((n, 64)) < 0.25)
        preds = rng.integers(0, 256, size=(n, 64))
        levels[n // 2 :, 0] = 2**45
        preds[n // 2 :] -= np.int64(2**42 * q)
        want = _reconstruct_reference(preds, levels, matrices, q)
        got = codec._reconstruct(preds, levels, matrices, q)
        assert got.tobytes() == want.tobytes()
        for start in range(0, n, 250):
            batch = slice(start, start + codec.BATCH_BLOCKS)
            got = codec._reconstruct(preds[batch], levels[batch], matrices[batch], q)
            assert got.tobytes() == want[batch].tobytes()


def _wavefront_reference(n_frames, blocks_w, blocks_h, size):
    """Reference schedule, rebuilt on every call: each wave's blocks of every
    frame in (frame, by) order, cut into batches of `size`."""
    for wave in range(blocks_w + 2 * (blocks_h - 1)):
        by = np.arange(blocks_h)
        bx = wave - 2 * by
        on_grid = (bx >= 0) & (bx < blocks_w)
        bx, by = bx[on_grid], by[on_grid]
        frame = np.repeat(np.arange(n_frames), bx.size)
        bx, by = np.tile(bx, n_frames), np.tile(by, n_frames)
        for start in range(0, frame.size, size):
            batch = slice(start, start + size)
            f, x, y = frame[batch], bx[batch], by[batch]
            yield (f, x, y), (f * blocks_h + y) * blocks_w + x


@pytest.mark.parametrize(
    "geometry",
    [(8, 16, 12, 16), (8, 16, 12, 32), (1, 44, 36, 16), (1, 44, 36, 32), (8, 22, 18, 16)],
    ids=lambda g: "x".join(map(str, g)),
)
def test_wavefront_schedule_is_cached_and_read_only(geometry):
    batches = codec._wavefront_batches(*geometry)
    assert codec._wavefront_batches(*geometry) is batches
    want = list(_wavefront_reference(*geometry))
    assert len(batches) == len(want)
    for ((f, x, y), i), ((wf, wx, wy), wi) in zip(batches, want):
        for got, ref in ((f, wf), (x, wx), (y, wy), (i, wi)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0
    n_frames, blocks_w, blocks_h, _ = geometry
    assert np.array_equal(np.sort(np.concatenate([i for _, i in batches])), np.arange(n_frames * blocks_w * blocks_h))


@pytest.mark.parametrize("strategy", ["s3", "s1"])
def test_decode_batch_size_changes_nothing(strategy, monkeypatch, tiny_bank, tiny_clip):
    """A 3-frame stream decodes to the encoder's planes and to one coded-block
    table with the decoder's batch bound at 1, 7, 16 or a whole wave."""
    recon = []
    stream, stats = codec.encode_sequence(tiny_clip, 22, codec.StrategyConfig(strategy, tiny_bank), recon)
    tables = []
    for bound in (1, 7, 16, sum(s.n_total for s in stats)):  # the last: every wave whole
        monkeypatch.setattr(codec, "DECODE_BATCH_BLOCKS", bound)
        planes, decoded = codec.decode_sequence(stream, tiny_bank)
        assert all(map(np.array_equal, planes, recon))
        tables.append(np.concatenate([s.blocks for s in decoded]).tobytes())
    assert tables == tables[:1] * 4


def test_all_zero_block_costs_one_bit():
    out, nbits = _roundtrip_levels(np.zeros(64, dtype=np.int64))
    assert nbits == 1
    assert np.all(out == 0)


def test_single_dc_level_costs_nine_bits():
    levels = np.zeros(64, dtype=np.int64)
    levels[0] = 1
    # cbf(1) + last position(6) + ue(0)=1 bit + sign(1) = 9
    assert codec.level_bit_cost(levels) == 9


def test_bit_lengths_are_the_exponent_field_rule():
    """_bit_lengths gives bit_length(|l|) for every codable magnitude (below
    2**12) of either sign and for +-0.0, which is the float32 exponent field
    - 126 (0 for a zero), and each row's last significant position + 1."""
    mags = np.arange(4096, dtype=np.float32)
    levels = np.concatenate([mags, -mags])  # +0.0 and -0.0 lead the halves
    lengths, last_1 = codec._bit_lengths(levels.reshape(-1, 64))
    field = (levels.view(np.int32) >> 23) & 0xFF
    assert np.array_equal(lengths.ravel(), np.maximum(field - 126, 0))
    assert lengths.ravel().tolist() == [int(abs(level)).bit_length() for level in levels]
    assert np.all(last_1 == 64)
    # one level at each position over +-0.0, and rows of +-0.0 alone
    rows = np.where(np.eye(64, dtype=bool), np.float32(-4095), np.float32(-0.0))
    rows = np.concatenate([rows, -rows, np.zeros((1, 64), np.float32), np.full((1, 64), -0.0, np.float32)])
    lengths, last_1 = codec._bit_lengths(rows)
    assert last_1.tolist() == 2 * list(range(1, 65)) + [0, 0]
    assert np.array_equal(lengths, np.concatenate([12 * np.eye(64), 12 * np.eye(64), np.zeros((2, 64))]))
    assert np.array_equal(codec.level_bit_cost(rows), reference_search.level_bit_cost(rows))


@pytest.mark.parametrize("strategy", codec.STRATEGIES)
def test_search_matches_the_stacked_reference(strategy, tiny_bank, tiny_clip):
    """The search's runs (one shared DCT_SCAN for the DCT pairs, the kernel
    pairs' rows, no residual gather for a run of the 35 modes in order), the
    quantizer and the frexp bit lengths give the coefficients, levels, bits
    and J of one stacked product over the full per-candidate (C, 64, 64)
    stack, byte for byte (tests/reference_search.py): a full 16-block batch
    and a remainder batch of 6 at QPs 0, 22, 37 and 51.  Levels move only at
    a quantizer boundary, so the coefficients are what shows a product that
    rounds differently."""
    cfg = codec.StrategyConfig(strategy, tiny_bank)
    planes = np.stack(tiny_clip)
    frame, by, bx = np.unravel_index(np.arange(0, 144, 9), (3, 6, 8))  # 16 blocks over the clip
    preds = codec.predict_all_modes(codec.build_references(planes, bx, by, frame=frame))
    preds = np.moveaxis(preds, -3, 0).reshape(35, 16, 64)
    orig = codec._blocks(planes)[frame, by, :, bx, :].reshape(16, 64).astype(np.int32)
    for k in (16, 6):
        res = np.subtract(orig[:k], preds[:, :k], dtype=np.float32)
        for qp in (0, 22, 37, 51):
            q, lam = qp_to_qstep(qp), qp_to_lambda(qp)
            _, differ = reference_search.differences(codec._candidate_costs, res, q, lam, cfg)
            assert differ == [], (k, qp)


def test_stride_zero_synthesis_matches_the_gathered_rows():
    """The normative synthesis order does not depend on the rows' memory
    layout (docs/FORMATS.md): _reconstruct gives the same bytes from one
    DCT_SCAN broadcast with stride 0 as from the gathered (k, 64, 64) copy
    StrategyConfig.gather makes, and as the sequential sum, over random
    levels at k = 1..32 and QPs 0, 22, 37 and 51.  Half of each batch has a
    DC level of 2**45 and a prediction that cancels it, so a change in
    summation order shows in the bytes."""
    rng = np.random.default_rng(31)
    cfg = codec.StrategyConfig("dct_only")
    for k in range(1, 33):
        shared = np.broadcast_to(codec.DCT_SCAN, (k, 64, 64))
        gathered = cfg.gather(rng.integers(0, 35, size=k))  # every candidate is a DCT pair
        assert shared.strides[0] == 0 and gathered.strides[0] != 0 and np.array_equal(gathered, shared)
        for qp in (0, 22, 37, 51):
            q = qp_to_qstep(qp)
            top = max(1, int(200 / q))
            levels = rng.integers(-top, top + 1, size=(k, 64)) * (rng.random((k, 64)) < 0.25)
            preds = rng.integers(0, 256, size=(k, 64))
            levels[k // 2 :, 0] = 2**45
            preds[k // 2 :] -= np.int64(2**42 * q)
            got = codec._reconstruct(preds, levels, shared, q).tobytes()
            assert got == codec._reconstruct(preds, levels, gathered, q).tobytes(), (k, qp)
            assert got == _reconstruct_reference(preds, levels, gathered, q).tobytes(), (k, qp)


def test_level_bit_cost_batched():
    rng = np.random.default_rng(1)
    batch = rng.integers(-5, 6, size=(35, 64)).astype(np.int64)
    costs = codec.level_bit_cost(batch)
    for row, cost in zip(batch, costs):
        assert codec.level_bit_cost(row) == cost
    # the search costs (candidates, blocks, 64) float32 levels
    assert np.array_equal(codec.level_bit_cost(batch.reshape(5, 7, 64).astype(np.float32)), costs.reshape(5, 7))


@pytest.mark.parametrize("rows", ["rounded-kernel", "dct"])
def test_search_distortion_is_the_error_before_rounding(rows, tiny_bank):
    """J - lambda * bits of each candidate is ||M^T deq - r||^2, computed in
    float64, for the DCT and for a kernel rounded to one decimal digit.  The
    rounded kernel is far from orthonormal, so Parseval's sum over the
    coefficients, sum (c - deq)^2, misses its distortion."""
    matrix = tiny_bank.rounded(1).kernel_for_mode(0).matrix if rows == "rounded-kernel" else codec.DCT_SCAN
    matrices = np.broadcast_to(matrix.astype(np.float32), (4, 64, 64))
    res = np.random.default_rng(9).integers(-60, 61, size=(4, 16, 64)).astype(np.float32)
    q, lam = qp_to_qstep(27), qp_to_lambda(27)
    lv, bits, j = codec._candidate_costs(res, q, lam, ((slice(4), None, matrices),), np.full(4, codec.MODE_BITS))
    m, deq = matrices.astype(np.float64), lv.astype(np.float64) * q
    want = np.sum((deq @ m - res) ** 2, axis=-1)
    assert np.allclose(j - lam * bits, want, rtol=1e-4, atol=0)
    parseval = np.sum((res @ np.swapaxes(m, -1, -2) - deq) ** 2, axis=-1)
    if rows == "dct":
        assert np.allclose(parseval, want, rtol=1e-4, atol=0)
    else:
        assert not np.allclose(parseval, want, rtol=1e-4, atol=0)


def test_level_bound_holds_in_the_float32_search(monkeypatch, tiny_bank):
    """The largest level an encoder can emit: a kernel row of +-0.125 (an L1
    norm of 8, the most validate() allows) meets a +-255 residual aligned
    with it at QP 0, so the coefficient is 8 * 255.  The float32 search must
    keep the level below the 2**12 the decoder accepts, and the stream must
    decode to the encoder's reconstruction."""
    signs = np.where(np.random.default_rng(3).random(64) < 0.5, -1.0, 1.0)
    kernel = replace(tiny_bank.kernels[0], matrix=codec.DCT_SCAN * signs)  # row 0: 0.125 * signs
    bank = replace(tiny_bank, kernels=(kernel,) * 24).validate()
    # every mode predicts 0 where the sign is + and 255 where it is -, and
    # the source is the opposite, so every residual is 255 * signs
    pred = np.where(signs > 0, 0, 255).astype(np.int32).reshape(8, 8)
    monkeypatch.setattr(codec, "predict_all_modes", lambda refs: np.tile(pred, refs.shape[:-1] + (35, 1, 1)))
    monkeypatch.setattr(codec, "predict_block", lambda refs, mode: np.tile(pred, refs.shape[:-1] + (1, 1)))
    plane = np.tile((255 - pred).astype(np.uint8), (2, 3))
    recon = []
    stream, (stats,) = codec.encode_sequence([plane], 0, codec.StrategyConfig("s3", bank), recon)
    assert stats.blocks.saab.all()
    assert 3238 <= np.abs(stats.blocks.levels).max() <= 3239 < 2**12
    decoded, _ = codec.decode_sequence(stream, bank)
    assert np.array_equal(decoded[0], recon[0])


@pytest.mark.parametrize("strategy", codec.STRATEGIES)
def test_encode_decode_mirror(strategy, tiny_bank, tiny_clip):
    cfg = codec.StrategyConfig(strategy, tiny_bank)
    # tiny_clip, then 3-frame stacks one block wide (8x24) and one block tall (24x8)
    clips = [tiny_clip] + [video.synthesize_luma_clip(w, h, 3, seed=23) for w, h in ((8, 24), (24, 8))]
    for planes in clips:
        recon = []
        stream, stats = codec.encode_sequence(planes, 32, cfg, recon)
        decoded, dec_stats = codec.decode_sequence(stream, cfg.bank)
        assert all(map(np.array_equal, decoded, recon))
        # each frame's SSE against the stored reconstruction: a store into a
        # copy of the stack would leave zeros that both sides agree on
        sse = [float(np.sum((o.astype(np.int64) - r) ** 2)) for o, r in zip(planes, recon)]
        assert [s.sse for s in stats] == sse
        summary = codec.summarize(stats, strategy)
        assert codec.summarize(dec_stats, strategy) == summary
        assert summary["blocks"] == sum(s.n_total for s in stats) == sum(p.size for p in planes) // 64
        assert summary["saab_blocks"] == sum(s.n_saab for s in stats)
        if strategy == "s3":  # every mode signals its transform
            assert summary["flag_bits"] == summary["blocks"]
        # the cost model's bits are exactly what the writer wrote
        assert (summary["total_bits"] + 7) // 8 == len(stream) - codec._HEADER.size


def test_s1_never_signals_flag(tiny_bank, tiny_clip):
    cfg = codec.StrategyConfig("s1", tiny_bank)
    stream, _ = codec.encode_sequence(tiny_clip, 32, cfg)
    _, dec_stats = codec.decode_sequence(stream, tiny_bank)
    assert codec.summarize(dec_stats, "s1")["flag_bits"] == 0


def test_s2_no_flag_on_excluded_modes(tiny_bank, tiny_clip):
    cfg = codec.StrategyConfig("s2", tiny_bank)
    stream, stats = codec.encode_sequence(tiny_clip, 32, cfg)
    from saabcodec.modes import DCT_ONLY_MODES

    for fs in stats:
        assert not fs.blocks.saab[np.isin(fs.blocks.mode, sorted(DCT_ONLY_MODES))].any()


def test_digest_mismatch_rejected(tiny_bank, tiny_clip):
    cfg = codec.StrategyConfig("s3", tiny_bank)
    stream, _ = codec.encode_sequence(tiny_clip, 32, cfg)
    first = tiny_bank.kernels[0]
    perturbed = replace(first, matrix=first.matrix + 1e-9)
    other = replace(tiny_bank, kernels=(perturbed,) + tiny_bank.kernels[1:])
    with pytest.raises(InvalidInputError):
        codec.decode_sequence(stream, other)


def test_corrupt_stream_rejected(tiny_clip):
    cfg = codec.StrategyConfig("dct_only")
    stream, _ = codec.encode_sequence(tiny_clip, 32, cfg)
    with pytest.raises(BitstreamError):
        codec.decode_sequence(stream[: len(stream) // 2])
    with pytest.raises(BitstreamError):
        codec.decode_sequence(b"JUNK" + stream[4:])


def test_stream_info(tiny_clip):
    cfg = codec.StrategyConfig("dct_only")
    stream, _ = codec.encode_sequence(tiny_clip, 27, cfg)
    info = codec.stream_info(stream)
    assert info["strategy"] == "dct_only"
    assert info["qp"] == 27
    assert (info["width"], info["height"]) == (64, 48)
    assert info["frames"] == 3


def test_reconstruction_in_range(tiny_bank, tiny_clip):
    cfg = codec.StrategyConfig("s3", tiny_bank)
    stream, _ = codec.encode_sequence(tiny_clip, 22, cfg)
    decoded, _ = codec.decode_sequence(stream, tiny_bank)
    for p in decoded:
        assert p.min() >= 0 and p.max() <= 255


@pytest.mark.parametrize(
    "qp,shape",
    [pytest.param(qp, None, id=str(qp)) for qp in (-1, 52, 255, 256, 22.0, True)]
    + [pytest.param(22, shape, id="x".join(map(str, shape))) for shape in ((0, 8), (8, 0))],
)
def test_bad_qp_rejected(qp, shape, tiny_clip):
    # `shape` replaces the clip by one plane with no rows or no columns
    planes = tiny_clip if shape is None else [np.zeros(shape, dtype=np.uint8)]
    with pytest.raises(InvalidInputError):
        codec.encode_sequence(planes, qp, codec.StrategyConfig("dct_only"))


@pytest.mark.parametrize(
    "offset,value",
    [(4, 2), (5, 4), (5, 255), (6, 52), (6, 255), (7, 1), (8, 33), (8, 0), (10, 0), (12, 0),
     (14, 1), (None, 0), ("pad", 1)],
)
def test_bad_header_field_rejected(offset, value, tiny_clip):
    # header byte 4 is the version, byte 5 the strategy code, byte 6 the QP,
    # byte 7 the pad byte, bytes 8, 10 and 12 the low bytes of width, height
    # and frame count, byte 14 the first of the (dct_only: zero) bank digest;
    # offset None appends a byte after the payload and "pad" sets the last
    # padding bit, which only decoding can see
    stream, _ = codec.encode_sequence(tiny_clip[:1], 37, codec.StrategyConfig("dct_only"))
    if offset is None:
        bad = stream + bytes([value])
    elif offset == "pad":
        assert stream[-1] & value == 0  # the payload ends before the last bit
        bad = stream[:-1] + bytes([stream[-1] | value])
    else:
        bad = stream[:offset] + bytes([value]) + stream[offset + 1 :]
        with pytest.raises(BitstreamError):
            codec.stream_info(bad)
    with pytest.raises(BitstreamError):
        codec.decode_sequence(bad)


def test_payload_shorter_than_header_blocks_rejected():
    # 65528x65528 is a valid frame size whose 16 GiB int32 plane must not be
    # allocated for a one-byte payload
    header = codec._HEADER.pack(b"SBVC", 1, 0, 22, 0, 65528, 65528, 1, bytes(16))
    with pytest.raises(BitstreamError, match="payload too short"):
        codec.decode_sequence(header + b"\0")


@pytest.mark.parametrize("case", ["65536-frames", "65536-wide", "int32-plane"])
def test_unstorable_input_rejected_before_encoding(monkeypatch, case):
    # the header stores width, height and frame count as u16, and the level
    # bound assumes 8-bit samples; nothing may be coded first
    def encode_block(*args, **kwargs):
        raise AssertionError("coded before the input check")

    monkeypatch.setattr(codec, "encode_block", encode_block)
    planes = {
        "65536-frames": [np.zeros((8, 8), dtype=np.uint8)] * 65_536,
        "65536-wide": [np.zeros((8, 65_536), dtype=np.uint8)],
        "int32-plane": [np.full((8, 8), 4000, dtype=np.int32)],
    }[case]
    with pytest.raises(InvalidInputError):
        codec.encode_sequence(planes, 22, codec.StrategyConfig("dct_only"))


@pytest.mark.parametrize("cfg", [None, "s3", codec.StrategyConfig], ids=["None", "str", "class"])
def test_config_of_another_kind_rejected(cfg, tiny_clip):
    with pytest.raises(InvalidInputError, match="StrategyConfig"):
        codec.encode_sequence(tiny_clip[:1], 22, cfg)


def test_stack_of_planes_encodes_as_its_list(tiny_bank, tiny_clip):
    # a (frames, h, w) stack, a reversed view of one too, codes as the list of its planes
    stacks = [np.zeros((2, 16, 16), np.uint8), np.stack(tiny_clip), np.stack(tiny_clip)[::-1]]
    for stack in stacks:
        for strategy in ("dct_only", "s3"):
            cfg, recon = codec.StrategyConfig(strategy, tiny_bank), []
            stream, _ = codec.encode_sequence(stack, 22, cfg, recon)
            assert stream == codec.encode_sequence(list(stack), 22, cfg)[0]
            assert np.array_equal(codec.decode_sequence(stream, tiny_bank)[0], recon)


@pytest.mark.parametrize("zeros", [12, 64])
def test_oversized_level_rejected(zeros):
    # One 8x8 block whose DC level has magnitude 2**zeros: 2**12 is the
    # smallest magnitude the decoder rejects, 2**64 overflows int64.
    plane = np.zeros((8, 8), dtype=np.uint8)
    header, _ = codec.encode_sequence([plane], 37, codec.StrategyConfig("dct_only"))
    bits = "0" * codec.MODE_BITS  # planar
    bits += "1"  # coded-block flag
    bits += "0" * 6  # last significant position
    bits += "0" * zeros  # ue(2**zeros - 1): prefix, then 2**zeros in zeros + 1 bits
    bits += "1" + "0" * zeros
    bits += "0"  # sign
    bits += "0" * (-len(bits) % 8)
    payload = int(bits, 2).to_bytes(len(bits) // 8, "big")
    with pytest.raises(BitstreamError, match="level magnitude"):
        codec.decode_sequence(header[: codec._HEADER.size] + payload)


def test_residuals_always_recorded(tiny_clip):
    cfg = codec.StrategyConfig("dct_only")
    _, stats = codec.encode_sequence(tiny_clip, 37, cfg)
    for plane, s in zip(tiny_clip, stats):
        assert len(s.blocks) == (64 // 8) * (48 // 8)
        res = s.blocks.residual
        assert res.dtype == np.int16 and res.shape == (len(s.blocks), 8, 8)
        # raster order: original minus residual is a prediction in 0..255
        blocks = plane.reshape(48 // 8, 8, 64 // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
        pred = blocks.astype(np.int32) - res
        assert pred.min() >= 0 and pred.max() <= 255
