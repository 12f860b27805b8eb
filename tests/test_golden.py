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

from saabcodec import cli, codec, intra, pipeline, video
from saabcodec.analysis import ClipSpec, ExperimentManifest, run_experiment

STREAMS = {
    ("dct_only", 22): "cf69e2d1a5df785f05b849dbc5cf84243c414ae42a33d0b864ebc257b59e06c0",
    ("dct_only", 37): "8ff41ffedfc1d00917c466a160abfc6d344e9267f0d6fdd48c977f9d8bb576b7",
    ("s1", 22): "2e1b3e17d2b8e227dcd1be758e314fcf76a461f29091ac484af86ab06ef3e01b",
    ("s1", 37): "245108aff329cf2dcb24897f264ff05427556942b4654947211b53ae363d0239",
    ("s2", 22): "11bd26c20a0936395147e93a3f8c9cbb21f61ace8ae6fb8bdcd667894149f5cd",
    ("s2", 37): "6b990331c4d8d6ef9fb5a28e3716a8a44c4d5cc1a8861a50b7c4171c78905c34",
    ("s3", 22): "d4e1b7ad07185ba23daffa854162b9fb52a905ccca31b74f3d4fb77811bc63ee",
    ("s3", 37): "adaa28da4f1321485b136a2d3b5ecfb4a229518e928d90c4374a499fbd5dbd7e",
}
# decode_sequence output of each stream above, planes concatenated as uint8.
DECODED_PLANES = {
    ("dct_only", 22): "b19b1b8e5bdf5fc479dceaf8a52a15ac7f0e3bb6d7ded1d47e6eeb322dfb7c15",
    ("dct_only", 37): "4e066869d2eacb8513dbff7600c73ae0166aaee61eb439aff12ffd71dc0c0826",
    ("s1", 22): "f4e50fe0a1817ed47da224011ec50bdbfe0a4111e2823071757f9bee541fd01c",
    ("s1", 37): "e74d2e8156ff3970f94597770e25ac2e8e9345d23bcd902e18df0aab88b18b25",
    ("s2", 22): "70adbe08182806102a0fa3ae25f638a58216305ddf28520bd142270c7bf5b544",
    ("s2", 37): "e7e42d764202395661ce938599d44c377a87d6216de55cfe39d34faf132d0f80",
    ("s3", 22): "f1cf93582e5adf03a255bc0ca1881d13154f2c0525a13ba430acf11bd41df975",
    ("s3", 37): "547f310a6dccc42fb1b47e68a96f90ff913ded5687e5e16fe2c05020394bb330",
}
BANK_DIGEST = "4d92a2a91c9d76f4f23f9e6fc3bfb2f4"
CORPUS = "00decbe824b83f65ac5a0589eaaf6772af1e89c4a35c81bc51a4543a4f4ccc81"
REFERENCES = "a9bbaa64d41b07770f50bd72e9e874f0c3f9373c1298f46925b87327b51fccf2"
# predict_block over every mode of a set equals that set's predict_all_modes
# output, so both predictor tests pin the same digest.
PREDICTIONS = "248563641121007eb49004857da3b4e60e94541751457054a4623c87a21c090c"
# The deterministic outputs of run_experiment over tiny_clip, QPs 22-37,
# dct_only + s1-s3 (timing.csv holds wall-time ratios).
EXPERIMENT_OUTPUTS = {
    "rd_points.csv": "a12509014ca99e15448a70f11b41a2371a904254601e227adaf7c3162524ce29",
    "bd_summary.csv": "e3b8c08858afe68dd844ceb0171d01c44d8499d40ee0402b3bec5bb94c5e3e71",
    "usage.csv": "4f2f843f3ec17028fe5caf682d2c2891399df78b453a517978a0423c89bb9897",
    "report.json": "16f93fd4265337ceaaa356d2d777353158786bd32b1b5f1490af9e3e803bf2de",
}
# CLI outputs over the tiny fixtures: `analyze-transforms` (mode 0) and
# `rd-model` (QP 37) on tiny_records and tiny_bank, and `encode` (s3, QP 32)
# then `decode` of tiny_clip, each with its --stats file and stdout.
CLI_OUTPUTS = {
    "compaction.csv": "da83b2388fe6e8223a8d13748296926c6b075b76f9fc59229c570e308eb245a2",
    "decorrelation.csv": "04b27d519314e1754c24ab422d4d8f5034904c68e6b7fb45304a56571f8a6d35",
    "transforms.json": "dbe19538a0e974978b48a3fb19d43a25989ddc1283190ce10b1bf299080a8b26",
    "kappa.csv": "77b13572e08b52bdf6f29f3597f9b8740775b812558d4687bbb4295cf548552e",
    "sigma.csv": "fea5d7793cb677ed44163e31de10a3917ccd78a36a914c4efc8215e8ecf665d9",
    "encode.json": "dbb485a74aea4b7c915bcd8df17363996cc65e0b6d243709fcfeb27194096a4b",
    "encode.stdout": "dd41c00f1d716073209e22af6b28108fd4c2f622571d9acfc118473b193d366b",
    "decode.json": "7d6c35cf89660272d982144cffb95a3f27272fb125bd7420913031a62fcc297c",
    "decode.stdout": "af3aee10d212806caaa1688ca057102d57b1ca93980f9b8dac0eef2564d802cc",
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
    exercised."""
    rng = np.random.default_rng(2024)
    return [
        np.concatenate([rng.integers(0, 256, size=17).astype(np.int32) for _ in range(4)])
        for _ in range(N_SETS)
    ]


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory, tiny_clip, tiny_bank):
    out = tmp_path_factory.mktemp("tiny_experiment")
    clip_path = str(out / "tiny.yuv")
    video.write_yuv(clip_path, tiny_clip)
    h, w = tiny_clip[0].shape
    manifest = ExperimentManifest(
        clips=(ClipSpec(name="tiny", path=clip_path, width=w, height=h),),
        qps=(22, 27, 32, 37),
        strategies=("s1", "s2", "s3"),
        timing_runs=1,
    )
    run_experiment(manifest, str(out), bank=tiny_bank)
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


def test_bank_digest(tiny_bank):
    assert tiny_bank.digest().hex() == BANK_DIGEST


def test_corpus_digest(tmp_path, tiny_records):
    path = tmp_path / "corpus.bin"
    pipeline.save_residual_corpus(str(path), tiny_records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CORPUS


def test_reference_digest():
    rng = np.random.default_rng(2025)
    chunks = []
    for _ in range(N_SETS):
        recon = rng.integers(0, 256, size=(40, 56)).astype(np.int32)
        bx, by = int(rng.integers(0, 7)), int(rng.integers(0, 5))
        chunks.append(intra.build_references(recon, bx, by))
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
