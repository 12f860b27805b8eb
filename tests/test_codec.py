import numpy as np
import pytest

from saabcodec import codec, video
from saabcodec.bitstream import BitReader, BitWriter
from saabcodec.errors import BitstreamError, InvalidInputError
from saabcodec.pipeline import extract_residuals, train_kernel_bank


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
    rng = np.random.default_rng(0)
    for _ in range(300):
        levels = np.zeros(64, dtype=np.int64)
        n = int(rng.integers(0, 20))
        pos = rng.choice(64, size=n, replace=False)
        levels[pos] = rng.integers(-40, 41, size=n)
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
    other = train_kernel_bank(
        extract_residuals([video.synthesize_luma_clip(160, 128, 12, seed=23)], qps=(22, 32)),
        samples_per_kernel=300,
        seed=2,
    )
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


@pytest.mark.parametrize("qp", [-1, 52, 255, 256, 22.0, True])
def test_bad_qp_rejected(qp, tiny_clip):
    with pytest.raises(InvalidInputError):
        codec.encode_sequence(tiny_clip, qp, codec.StrategyConfig("dct_only"))


@pytest.mark.parametrize("offset,value", [(5, 4), (5, 255), (6, 52), (6, 255), (8, 33)])
def test_bad_header_field_rejected(offset, value, tiny_clip):
    # header byte 5 is the strategy code, byte 6 the QP, byte 8 the low
    # byte of the width
    stream, _ = codec.encode_sequence(tiny_clip[:1], 37, codec.StrategyConfig("dct_only"))
    bad = stream[:offset] + bytes([value]) + stream[offset + 1 :]
    with pytest.raises(BitstreamError):
        codec.decode_sequence(bad)
    with pytest.raises(BitstreamError):
        codec.stream_info(bad)


def test_residuals_kept_only_when_collected(tiny_clip):
    cfg = codec.StrategyConfig("dct_only")
    _, stats = codec.encode_sequence(tiny_clip, 37, cfg)
    assert all(b.residual is None for s in stats for b in s.blocks)
    collected = []
    _, stats = codec.encode_sequence(tiny_clip, 37, cfg, collect_residuals=collected)
    blocks = [b for s in stats for b in s.blocks]
    assert len(collected) == len(blocks)
    for entry, block in zip(collected, blocks):
        assert entry["residual"] is block.residual
        assert block.residual.dtype == np.int16 and block.residual.shape == (8, 8)
