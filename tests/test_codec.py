from dataclasses import replace

import numpy as np
import pytest

from saabcodec import codec
from saabcodec.bitstream import BitReader, BitWriter
from saabcodec.errors import BitstreamError, InvalidInputError


def test_quantizer_deadzone():
    q = 10.0
    y = np.array([0.0, 3.3, 6.7, 9.9, 10.0, -6.7, -13.4, 26.8])
    # level = sign(y) * floor(|y|/Q + 1/3)
    want = np.array([0, 0, 1, 1, 1, -1, -1, 3])
    assert np.array_equal(codec.quantize(y, q), want)


def test_dequantize_reconstruction_levels():
    lv = np.array([0, 1, -2, 5])
    assert np.allclose(codec.dequantize(lv, 4.0), [0.0, 4.0, -8.0, 20.0])


def test_zigzag_is_permutation():
    assert sorted(codec.ZIGZAG.tolist()) == list(range(64))
    assert np.array_equal(np.argsort(codec.ZIGZAG), codec.INV_ZIGZAG)


def _roundtrip_levels(levels):
    bw = BitWriter()
    codec.encode_levels(bw, levels)
    br = BitReader(bw.getvalue())
    out = codec.decode_levels(br)
    return out, bw.bit_length


def test_level_coding_roundtrip_and_cost():
    # Magnitudes up to the largest codable one, 2**12 - 1, so every
    # exp-Golomb code length the decoder accepts is exercised.
    rng = np.random.default_rng(0)
    for _ in range(300):
        levels = np.zeros(64, dtype=np.int64)
        n = int(rng.integers(0, 20))
        pos = rng.choice(64, size=n, replace=False)
        bits = rng.integers(1, 13, size=n)
        levels[pos] = rng.integers(1 << (bits - 1), 1 << bits) * rng.choice([-1, 1], size=n)
        out, nbits = _roundtrip_levels(levels)
        assert np.array_equal(out, levels)
        assert nbits == codec.level_bit_cost(levels)


def test_all_zero_block_costs_one_bit():
    out, nbits = _roundtrip_levels(np.zeros(64, dtype=np.int64))
    assert nbits == 1
    assert np.all(out == 0)


def test_single_dc_level_costs_nine_bits():
    levels = np.zeros(64, dtype=np.int64)
    levels[0] = 1
    # cbf(1) + last position(6) + ue(0)=1 bit + sign(1) = 9
    assert codec.level_bit_cost(levels) == 9


def test_level_bit_cost_batched():
    rng = np.random.default_rng(1)
    batch = rng.integers(-5, 6, size=(35, 64)).astype(np.int64)
    costs = codec.level_bit_cost(batch)
    for row, cost in zip(batch, costs):
        assert codec.level_bit_cost(row) == cost


@pytest.mark.parametrize("strategy", codec.STRATEGIES)
def test_encode_decode_mirror(strategy, tiny_bank, tiny_clip):
    cfg = codec.StrategyConfig(strategy, tiny_bank)
    stream, stats = codec.encode_sequence(tiny_clip, 32, cfg)
    decoded, dstats = codec.decode_sequence(stream, cfg.bank)
    sse_dec = sum(
        float(np.sum((o.astype(np.int64) - d.astype(np.int64)) ** 2))
        for o, d in zip(tiny_clip, decoded)
    )
    assert sse_dec == sum(s.sse for s in stats)
    assert dstats.n_total == sum(s.n_total for s in stats)
    assert dstats.n_saab == sum(s.n_saab for s in stats)


def test_s1_never_signals_flag(tiny_bank, tiny_clip):
    cfg = codec.StrategyConfig("s1", tiny_bank)
    stream, _ = codec.encode_sequence(tiny_clip, 32, cfg)
    _, dstats = codec.decode_sequence(stream, tiny_bank)
    assert dstats.n_flag_bits == 0


def test_s2_no_flag_on_excluded_modes(tiny_bank, tiny_clip):
    cfg = codec.StrategyConfig("s2", tiny_bank)
    stream, stats = codec.encode_sequence(tiny_clip, 32, cfg)
    from saabcodec.modes import DCT_ONLY_MODES

    for fs in stats:
        for rec in fs.blocks:
            if rec.mode in DCT_ONLY_MODES:
                assert rec.transform == "dct"


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
    [(4, 2), (5, 4), (5, 255), (6, 52), (6, 255), (8, 33), (8, 0), (10, 0), (12, 0), (None, 0),
     ("pad", 1)],
)
def test_bad_header_field_rejected(offset, value, tiny_clip):
    # header byte 4 is the version, byte 5 the strategy code, byte 6 the QP,
    # bytes 8, 10 and 12 the low bytes of width, height and frame count;
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


@pytest.mark.parametrize("zeros", [12, 64])
def test_oversized_level_rejected(zeros):
    # One 8x8 block whose DC level has magnitude 2**zeros: 2**12 is the
    # smallest magnitude the decoder rejects, 2**64 overflows int64.
    plane = np.zeros((8, 8), dtype=np.uint8)
    header, _ = codec.encode_sequence([plane], 37, codec.StrategyConfig("dct_only"))
    bw = BitWriter()
    bw.write_bits(0, codec.MODE_BITS)  # planar
    bw.write_bits(1, 1)  # coded-block flag
    bw.write_bits(0, 6)  # last significant position
    bw.write_bits(0, zeros)  # ue(2**zeros - 1): prefix, then 2**zeros in zeros + 1 bits
    bw.write_bits(1 << zeros, zeros + 1)
    bw.write_bits(0, 1)  # sign
    with pytest.raises(BitstreamError, match="level magnitude"):
        codec.decode_sequence(header[: codec._HEADER.size] + bw.getvalue())


def test_residuals_kept_only_when_collected(tiny_clip):
    cfg = codec.StrategyConfig("dct_only")
    stream, stats = codec.encode_sequence(tiny_clip, 37, cfg)
    assert all(b.residual is None for s in stats for b in s.blocks)
    kept, stats = codec.encode_sequence(tiny_clip, 37, cfg, keep_residuals=True)
    assert kept == stream
    for s in stats:
        assert len(s.blocks) == (64 // 8) * (48 // 8)
        for block in s.blocks:
            assert block.residual.dtype == np.int16 and block.residual.shape == (8, 8)
