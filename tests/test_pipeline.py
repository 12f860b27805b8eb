import numpy as np
import pytest

from saabcodec import codec, pipeline, video
from saabcodec.errors import InvalidInputError, StarvedGroupError
from saabcodec.modes import N_KERNELS, TRAIN_GROUPS


def test_corpus_roundtrip(tmp_path, residual_records):
    subset = residual_records[:500]
    path = str(tmp_path / "corpus.bin")
    pipeline.save_residual_corpus(path, subset)
    back = pipeline.load_residual_corpus(path)
    assert len(back) == 500
    for a, b in zip(subset, back):
        assert np.array_equal(a.residual, b.residual)
        assert (a.mode, a.qp, a.source, a.frame, a.x, a.y) == (
            b.mode,
            b.qp,
            b.source,
            b.frame,
            b.x,
            b.y,
        )


def test_corpus_writer_takes_only_its_dtype(tmp_path, tiny_records):
    path = str(tmp_path / "corpus.bin")
    # a list of record rows is the same records
    pipeline.save_residual_corpus(path, list(tiny_records[:5]))
    assert np.array_equal(pipeline.load_residual_corpus(path), tiny_records[:5])
    # a wider field is not cast: frame 70000 would be written as 4464
    fields = pipeline.RESIDUAL_DTYPE.fields
    wide = np.zeros(1, [(n, "<i8" if n == "frame" else t) for n, (t, _) in fields.items()])
    wide["frame"] = 70_000
    with pytest.raises(InvalidInputError, match="dtype"):
        pipeline.save_residual_corpus(path, wide)
    with pytest.raises(InvalidInputError, match="dtype"):
        pipeline.save_residual_corpus(path, np.zeros((1, 70), dtype=np.int16))
    # plain tuples shaped like a record are not its rows
    with pytest.raises(InvalidInputError):
        pipeline.save_residual_corpus(path, [(0, 22, 0, 0, 0, 0, np.zeros((8, 8)))])


def test_records_are_labelled(residual_records):
    assert set(np.unique(residual_records.mode).tolist()) <= set(range(35))
    assert set(np.unique(residual_records.qp).tolist()) == {22, 27, 32, 37}
    assert residual_records.residual.shape == (len(residual_records), 8, 8)
    assert residual_records.residual.dtype == np.int16


def test_training_deterministic(residual_records):
    b1 = pipeline.train_kernel_bank(residual_records, samples_per_kernel=500, seed=3)
    b2 = pipeline.train_kernel_bank(residual_records, samples_per_kernel=500, seed=3)
    b3 = pipeline.train_kernel_bank(residual_records, samples_per_kernel=500, seed=4)
    assert b1.digest() == b2.digest()
    assert b1.digest() != b3.digest()


def test_bank_has_24_kernels(bank):
    assert len(bank.kernels) == N_KERNELS
    for k in bank.kernels:
        assert k.matrix.shape == (64, 64)
        assert k.orthonormality_error() < 1e-9


def test_starved_groups_reported(residual_records):
    # keep only planar-mode residuals: every angular group starves
    planar = residual_records[residual_records.mode == 0][:200]
    with pytest.raises(StarvedGroupError) as exc:
        pipeline.train_kernel_bank(planar, samples_per_kernel=100)
    assert len(exc.value.starved) >= 20


@pytest.mark.parametrize(
    "option", [{"samples_per_kernel": 0}, {"samples_per_kernel": -5}, {"decimal_digits": -1}]
)
def test_training_options_out_of_range_rejected(tiny_records, option):
    with pytest.raises(InvalidInputError):
        pipeline.train_kernel_bank(tiny_records, **option)


def test_shared_modes_feed_both_groups(residual_records):
    # modes like 22 belong to two training groups; the pools must overlap
    owners = [k for k in range(N_KERNELS) if 22 in TRAIN_GROUPS[k]]
    assert len(owners) == 2


def test_index_outside_record_field_rejected_before_encoding(monkeypatch):
    # frame 65536 does not fit the record's u16; nothing may be encoded first
    def encode_sequence(*args, **kwargs):
        raise AssertionError("encoded before the range check")

    monkeypatch.setattr(pipeline, "encode_sequence", encode_sequence)
    clip = [np.zeros((8, 8), dtype=np.uint8)] * 65_537
    with pytest.raises(InvalidInputError, match="frame index 65536"):
        pipeline.extract_residuals([clip], qps=(37,))


@pytest.mark.parametrize("qps", [(22, 22), ()])
def test_bad_qps_rejected(tiny_clip, qps):
    with pytest.raises(InvalidInputError):
        pipeline.extract_residuals([tiny_clip], qps=qps)


def test_batched_extraction_matches_per_clip_loop(tmp_path):
    # the clips of one frame size are coded in one call per QP; the corpus
    # must hold the bytes of one call per clip, in (source, QP) order
    sizes = [(64, 48, 2), (48, 32, 3), (64, 48, 1), (48, 32, 2)]
    clips = [video.synthesize_luma_clip(w, h, n, seed=40 + i) for i, (w, h, n) in enumerate(sizes)]
    qps = (37, 22)
    per_clip = []
    for source, planes in enumerate(clips):
        part = pipeline.extract_residuals([planes], qps=qps).copy()
        part.source = source
        per_clip.append(part)
    paths = tmp_path / "batched.bin", tmp_path / "per_clip.bin"
    pipeline.save_residual_corpus(str(paths[0]), pipeline.extract_residuals(clips, qps=qps))
    pipeline.save_residual_corpus(str(paths[1]), np.concatenate(per_clip))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_extraction_runs_only_the_search(monkeypatch, tiny_clip):
    # extract_residuals reads the RD search's block table: no stream is
    # serialized, packed or given a header for the records it keeps
    want = pipeline.extract_residuals([tiny_clip], qps=(37, 22))

    def pack(*args, **kwargs):
        raise AssertionError("a stream was packed")

    for owner, name in ((codec, "pack_bits"), (codec, "encode_levels"), (pipeline, "encode_sequence")):
        monkeypatch.setattr(owner, name, pack)
    got = pipeline.extract_residuals([tiny_clip], qps=(37, 22))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_extraction_calls_fit_the_stream_header(monkeypatch):
    # the clips of one frame size are coded together, in calls of at most
    # the 0xFFFF frames a stream header can count
    calls = []

    def search_sequence(planes, qp, cfg):
        calls.append(len(planes))
        return np.zeros(len(planes), dtype=codec.BLOCK_DTYPE), None  # one block a frame

    monkeypatch.setattr(pipeline, "_search_sequence", search_sequence)
    plane = np.zeros((8, 8), dtype=np.uint8)
    frames = [40_000, 30_000, 20_000]
    records = pipeline.extract_residuals([[plane] * n for n in frames], qps=(37,))
    assert calls == [0xFFFF, sum(frames) - 0xFFFF]
    assert np.array_equal(records.source, np.repeat([0, 1, 2], frames))
    assert np.array_equal(records.frame, np.concatenate([np.arange(n) for n in frames]))
