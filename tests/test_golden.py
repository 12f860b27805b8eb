"""Golden digests: the codec's behaviour pinned as SHA-256 of its outputs.

A change that is meant to leave behaviour alone (a refactor, a speed-up)
must keep every digest here.  A change that alters streams, corpora, banks
or predictions on purpose re-pins the affected digests and says so.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from saabcodec import cli, codec, intra, pipeline, transforms, video
from saabcodec.analysis import ClipSpec, ExperimentManifest, run_experiment

STREAMS = {
    ("dct_only", 22): "28f3412e0130ceef2dca68a104f80d22210b0ee2a2aef3c4b2a22400de14b47e",
    ("dct_only", 37): "48613a32a5c41e4f15d66721c2ce0d729011f0f05203833971fb4e2acdb0fc1c",
    ("s1", 22): "960b43d9cb168c356c37c1166c8eebdf73d7e7827851ea9bf23a4a8fbe03cb0b",
    ("s1", 37): "aac6ef966fb5959586910686e17047899e0bc9639919de552a0e03281e2b0f2e",
    ("s2", 22): "4e6f0041aab7faa6e1f65cd4c3dcee4a2fd77f9b6ba42a0708fc34f1fd8e6bf7",
    ("s2", 37): "58fb06beeb7a90fb59f3e71cf85797a49c821eb428b9d91af371ec840a0f0976",
    ("s3", 22): "385c687abe5e6616c1e734a3c4eb443196a0e6a90376d8740c5d7b7b91b8df43",
    ("s3", 37): "0af95833f1f152eb079e093c04c8e33f52949281cd11f0ef6d743a045d574d63",
}
# decode_sequence output of each stream above, planes concatenated as uint8.
DECODED_PLANES = {
    ("dct_only", 22): "961189ef20ce39293a88a93256bbabdb776ba5a6b87f2d91d7a1de71dca7b541",
    ("dct_only", 37): "efb77a12acd356016b90e822eb9151b4cdb170bd37da1f82b15a92754a8830a3",
    ("s1", 22): "69a17d6d249ae8be69e2b987c165251257cba95243f766c30a7a2bcbbb1a1099",
    ("s1", 37): "2979f5a15338773f8df556cf7cc193c9980e2c824abab3ee8341e01f962b3b47",
    ("s2", 22): "009fb2af3825ad330f937391c012bed342f2be98f87cc81d0488b3767bd88712",
    ("s2", 37): "60d7980d45b64df2037b5126aaab0152a8aaee6e886d65c3484ce8a206a2d82b",
    ("s3", 22): "26e17cc52614591feea0f137c59410fc2b65edd76b9c983537fa818ec898555c",
    ("s3", 37): "906a9c3ef51cc3d0c6dced4c65fc455a865c06985a74d0555771417179d381ff",
}
# The DCT rows' bits are part of the format, since the decoder synthesizes
# with them in float64, and the analysis reports contract moments with them;
# ZIGZAG is the coded scan order.  Hashed as little-endian float64 and int64.
DCT_64_DIGEST = "fcf1af5e8dd937de72f2c10bf371293d0d698c364e0e0d0bcc4186aa6b87e943"
ZIGZAG_DIGEST = "2ccc86788f3137ad7beeea86e65141c843b24ec59ecfa944359789cd8bb748cc"
BANK_DIGEST = "17a6905d05e8335fae0db3a019b4e7a9"
CORPUS = "2e2bb4d6871d5f2f508506b032dc223c4a4b7da94a6170e5960d68c39d3021d9"
REFERENCES = "a9bbaa64d41b07770f50bd72e9e874f0c3f9373c1298f46925b87327b51fccf2"
# predict_block over every mode of a set equals that set's predict_all_modes
# output, so both predictor tests pin the same digest.
PREDICTIONS = "248563641121007eb49004857da3b4e60e94541751457054a4623c87a21c090c"
# The deterministic outputs of run_experiment over tiny_clip, QPs 22-37,
# dct_only + s1-s3 (timing.csv holds wall-time ratios).
EXPERIMENT_OUTPUTS = {
    "rd_points.csv": "b5801f91487599c40be5176b0640f58a9c285101fe3f61b8496179b4edd03ba9",
    "bd_summary.csv": "599e4db31a37f8d224192fd1ab353c6bdaff8279bbcfc1049d0b83e907abce73",
    "usage.csv": "f8a700e42ec2605a6326d1accc666a171948b2cf4c8bad80dbda62cd6acea044",
    "report.json": "15294ccf7fe143fcbd1ae46f0f222de80fab4c40cd92bbacc06461c695193af4",
}
# CLI outputs over the tiny fixtures: `analyze-transforms` (mode 0) and
# `rd-model` (QP 37) on tiny_records and tiny_bank, and `encode` (s3, QP 32)
# then `decode` of tiny_clip, each with its --stats file and stdout.
CLI_OUTPUTS = {
    "compaction.csv": "dfa22c34dfb1591d8cd2cbf33a784d1eac8fee30abc0643818ba5c74364e8448",
    "decorrelation.csv": "198c8b14504b56b1d3e5aa4d9914354a2b9cdbe8a02ce7702a5b222efdaed62e",
    "transforms.json": "884457a497aacefcd6099d997617f1483be554e826fbc499cd62d3eb42a040ea",
    "kappa.csv": "d087c891c0170c012f16699ed1d90e0b32f8b8e37c9bd73e4e94cd86d5d53aa0",
    "sigma.csv": "fea5d7793cb677ed44163e31de10a3917ccd78a36a914c4efc8215e8ecf665d9",
    "encode.json": "f75b6297ef7af01af557a04db7132464a92e091dcfb14139da05939580d98363",
    "encode.stdout": "e6e047f34e2337c133c24cbdada0c938446e03afad8e0ade39b6cf02f9763bed",
    "decode.json": "4195487fe3365e5b20888065cec9581f482fd65e32ff7d9fa10f04d39174f3df",
    "decode.stdout": "418f02599638df0d064f906638f8208994e76a25ae873f8f55b748e2ce8933b4",
}

N_SETS = 200


def _sha(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(np.ascontiguousarray(c, dtype="<i4").tobytes())
    return h.hexdigest()


def _random_reference_sets():
    """Reference vectors of four independent random 17-sample parts, so
    every table entry of the predictor (both corner copies included) is
    exercised, then [dc, 1] as build_references appends them."""
    rng = np.random.default_rng(2024)
    sets = []
    for _ in range(N_SETS):
        refs = np.concatenate([rng.integers(0, 256, size=17).astype(np.int32) for _ in range(4)])
        dc = (refs[1:9].sum() + refs[18:26].sum() + 8) >> 4  # above[1:9], left[1:9]
        sets.append(np.append(refs, np.int32([dc, 1])))
    return sets


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory, tiny_clip, tiny_bank):
    out = tmp_path_factory.mktemp("tiny_experiment")
    clip_path = str(out / "tiny.yuv")
    video.write_yuv(clip_path, tiny_clip)
    bank_path = str(out / "tiny.skb")
    tiny_bank.save(bank_path)
    h, w = tiny_clip[0].shape
    manifest = ExperimentManifest(
        clips=(ClipSpec(name="tiny", path=clip_path, width=w, height=h),),
        qps=(22, 27, 32, 37),
        strategies=("s1", "s2", "s3"),
        bank_path=bank_path,
        timing_runs=1,
    )
    run_experiment(manifest, str(out))
    return out


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory, tiny_records, tiny_bank, tiny_clip):
    out = tmp_path_factory.mktemp("tiny_cli")
    corpus, bank, clip = out / "corpus.bin", out / "bank.skb", out / "clip.yuv"
    stream = out / "clip.bin"
    pipeline.save_residual_corpus(str(corpus), tiny_records)
    tiny_bank.save(str(bank))
    video.write_yuv(str(clip), tiny_clip)
    h, w = tiny_clip[0].shape
    verbs = {
        "analyze-transforms": ["--corpus", corpus, "--mode", 0, "--output-dir", out],
        "rd-model": ["--corpus", corpus, "--bank", bank, "--qp", 37, "--output-dir", out],
        "encode": ["--input", clip, "--width", w, "--height", h, "--qp", 32, "--strategy", "s3",
                   "--bank", bank, "--output", stream, "--stats", out / "encode.json"],
        "decode": ["--input", stream, "--bank", bank, "--output", out / "decoded.yuv",
                   "--stats", out / "decode.json"],
    }
    for verb, argv in verbs.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([verb] + [str(a) for a in argv]) == 0
        (out / f"{verb}.stdout").write_text(stdout.getvalue())
    return out


@pytest.mark.parametrize("strategy,qp", sorted(STREAMS))
def test_stream_digest(strategy, qp, tiny_bank, tiny_clip):
    cfg = codec.StrategyConfig(strategy, tiny_bank)
    stream, _ = codec.encode_sequence(tiny_clip, qp, cfg)
    assert hashlib.sha256(stream).hexdigest() == STREAMS[(strategy, qp)]


@pytest.mark.parametrize("strategy,qp", sorted(DECODED_PLANES))
def test_decoded_plane_digest(strategy, qp, tiny_bank, tiny_clip):
    stream, _ = codec.encode_sequence(tiny_clip, qp, codec.StrategyConfig(strategy, tiny_bank))
    planes, _ = codec.decode_sequence(stream, tiny_bank)
    h = hashlib.sha256()
    for plane in planes:
        h.update(np.ascontiguousarray(plane, dtype=np.uint8).tobytes())
    assert h.hexdigest() == DECODED_PLANES[(strategy, qp)]


@pytest.mark.parametrize("strategy,qp", sorted(STREAMS))
def test_decoder_table_matches_encoder(strategy, qp, tiny_bank, tiny_clip):
    # The decoder's bits are reader positions and the encoder's come from
    # its cost model, so this checks the cost model against the parser.
    stream, enc = codec.encode_sequence(tiny_clip, qp, codec.StrategyConfig(strategy, tiny_bank))
    _, dec = codec.decode_sequence(stream, tiny_bank)
    assert len(dec) == len(enc) == len(tiny_clip)
    for d, e in zip(dec, enc):
        assert d.blocks.dtype.names == ("mode", "saab", "levels", "bits")
        for name in d.blocks.dtype.names:
            assert np.array_equal(d.blocks[name], e.blocks[name]), name


def test_dct_matrix_digest():
    assert transforms.DCT_64.shape == (64, 64)
    assert hashlib.sha256(transforms.DCT_64.astype("<f8").tobytes()).hexdigest() == DCT_64_DIGEST


def test_zigzag_digest():
    assert sorted(codec.ZIGZAG.tolist()) == list(range(64))
    assert hashlib.sha256(codec.ZIGZAG.astype("<i8").tobytes()).hexdigest() == ZIGZAG_DIGEST


def test_bank_digest(tiny_bank):
    assert tiny_bank.digest().hex() == BANK_DIGEST


def test_corpus_digest(tmp_path, tiny_records):
    path = tmp_path / "corpus.bin"
    pipeline.save_residual_corpus(str(path), tiny_records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CORPUS


def test_reference_digest():
    """REFERENCES pins the 68 samples [above, left, above_f, left_f]; the
    appended [dc, 1] are checked against their formula."""
    rng = np.random.default_rng(2025)
    chunks = []
    for _ in range(N_SETS):
        recon = rng.integers(0, 256, size=(40, 56)).astype(np.int32)
        bx, by = int(rng.integers(0, 7)), int(rng.integers(0, 5))
        refs = intra.build_references(recon, bx, by)
        assert refs[68:].tolist() == [(refs[1:9].sum() + refs[18:26].sum() + 8) >> 4, 1]
        chunks.append(refs[:68])
    assert _sha(chunks) == REFERENCES


def test_predict_all_modes_digest():
    chunks = [intra.predict_all_modes(refs) for refs in _random_reference_sets()]
    assert _sha(chunks) == PREDICTIONS


def test_predict_block_digest():
    chunks = [
        intra.predict_block(refs, mode)
        for refs in _random_reference_sets()
        for mode in range(35)
    ]
    assert _sha(chunks) == PREDICTIONS


@pytest.mark.parametrize("name", sorted(EXPERIMENT_OUTPUTS))
def test_experiment_csv_digest(name, experiment_dir):
    digest = hashlib.sha256((experiment_dir / name).read_bytes()).hexdigest()
    assert digest == EXPERIMENT_OUTPUTS[name]


@pytest.mark.parametrize("name", sorted(CLI_OUTPUTS))
def test_cli_output_digest(name, cli_dir):
    assert hashlib.sha256((cli_dir / name).read_bytes()).hexdigest() == CLI_OUTPUTS[name]
