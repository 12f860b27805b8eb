import contextlib
import csv
import io
import json
import pathlib
import shlex
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saabcodec import cli, codec, pipeline, video
from saabcodec.kernelio import KernelBank
from saabcodec.modes import TRAIN_GROUPS


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def run(argv):
    return cli.main([str(a) for a in argv])


def test_synthesize_and_ingest(workdir, capsys):
    clip = workdir / "clip.yuv"
    assert run(["synthesize", "--width", 64, "--height", 48, "--frames", 4,
                "--seed", 5, "--output", clip]) == 0
    capsys.readouterr()
    assert run(["ingest", "--input", clip, "--width", 64, "--height", 48]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["frames"] == 4
    assert (info["width"], info["height"]) == (64, 48)


def test_full_pipeline(workdir, capsys, bank_file):
    clip = workdir / "train.yuv"
    video.write_yuv(str(clip), video.synthesize_luma_clip(160, 128, 10, seed=21))
    corpus = workdir / "corpus.bin"
    assert run(["extract-residuals", "--clip", f"{clip}:160x128",
                "--qp", 27, "--qp", 37, "--output", corpus]) == 0
    bank = workdir / "bank.skb"
    capsys.readouterr()
    assert run(["train-bank", "--corpus", corpus, "--output", bank,
                "--samples-per-kernel", 300, "--seed", 1]) == 0
    digest = KernelBank.load(str(bank)).digest().hex()
    assert capsys.readouterr().out == f"trained 24 kernels (digest {digest}) -> {bank}\n"

    stream = workdir / "clip.bin"
    stats = workdir / "enc.json"
    assert run(["encode", "--input", clip, "--width", 160, "--height", 128,
                "--frames", 3, "--qp", 32, "--strategy", "s3",
                "--bank", bank, "--output", stream, "--stats", stats]) == 0
    enc = json.loads(stats.read_text())
    assert enc["total_bits"] > 0

    out = workdir / "out.yuv"
    dstats = workdir / "dec.json"
    assert run(["decode", "--input", stream, "--bank", bank,
                "--output", out, "--stats", dstats]) == 0
    dec = json.loads(dstats.read_text())
    assert dec["frames"] == 3
    # encoder-side percentage equals decode-side flag count exactly
    assert float(enc["p_saab_percent"]) == pytest.approx(
        100.0 * dec["saab_blocks"] / dec["blocks"], abs=1e-9
    )


def test_analyze_transforms_verb(workdir, capsys, tmp_path_factory):
    corpus = workdir / "corpus.bin"
    out = tmp_path_factory.mktemp("at")
    assert run(["analyze-transforms", "--corpus", corpus, "--mode", 0,
                "--output-dir", out]) == 0
    with open(out / "compaction.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["i", "dct", "klt", "saab1", "saab2"]
    assert len(rows) == 65


def test_rd_model_verb(workdir, tmp_path_factory, capsys):
    corpus = workdir / "corpus.bin"
    bank = workdir / "bank.skb"
    out = tmp_path_factory.mktemp("rdm")
    assert run(["rd-model", "--corpus", corpus, "--bank", bank,
                "--qp", 37, "--output-dir", out]) == 0
    assert (out / "kappa.csv").exists()
    assert (out / "sigma.csv").exists()


def test_bdrate_verb(workdir, capsys):
    anchor = workdir / "anchor.csv"
    test = workdir / "test.csv"
    rows = [(37 - 5 * k, 1000.0 * 2**k, 30.0 + 2 * k) for k in range(4)]
    for path, scale in ((anchor, 1.0), (test, 1.10)):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["qp", "rate", "psnr"])
            for qp, rate, p in rows:
                w.writerow([qp, rate * scale, p])
    capsys.readouterr()
    assert run(["bdrate", "--anchor", anchor, "--test", test]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bdbr_percent"] == pytest.approx(10.0, abs=1e-5)


def test_readme_quick_start_parses():
    # a flag removed from the CLI must not linger in the documented commands
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("saabcodec ")
    ]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_exit_codes(workdir, capsys):
    # missing bank for a Saab strategy -> config error
    clip = workdir / "train.yuv"
    assert run(["encode", "--input", clip, "--width", 160, "--height", 128,
                "--qp", 32, "--strategy", "s3",
                "--output", workdir / "x.bin"]) == cli.EXIT_CONFIG
    # corrupt bitstream -> data error
    bad = workdir / "bad.bin"
    bad.write_bytes(b"not a stream")
    assert run(["decode", "--input", bad, "--output", workdir / "y.yuv"]) == cli.EXIT_DATA
    # an RD table of four rows at three distinct rates cannot fit a cubic -> data error
    repeated = workdir / "repeated.csv"
    repeated.write_text("qp,rate,psnr\n22,1000,40\n22,1000,40\n27,500,38\n32,250,36\n")
    assert run(["bdrate", "--anchor", repeated, "--test", repeated]) == cli.EXIT_DATA
    # all-zero residuals have no variance to compact -> data error, no output
    flat = workdir / "flat.bin"
    pipeline.save_residual_corpus(str(flat), np.zeros(100, dtype=pipeline.RESIDUAL_DTYPE))
    capsys.readouterr()
    assert run(["analyze-transforms", "--corpus", flat, "--mode", 0,
                "--output-dir", workdir / "flat-out"]) == cli.EXIT_DATA
    assert capsys.readouterr().err == "error: input variance must be positive\n"
    assert not (workdir / "flat-out").exists()
    # missing file -> config error
    assert run(["ingest", "--input", workdir / "nope.yuv",
                "--width", 64, "--height", 48]) == cli.EXIT_CONFIG


_EXPERIMENT = ["experiment", "--manifest", "m.json", "--output-dir", "out"]
_BDRATE = ["bdrate", "--anchor", "rd.csv", "--test", "rd.csv"]
_CLIP = '{"name": "a", "path": "a.yuv", "width": 8, "height": 8'

# Stand-ins for the binary files the `built_files` fixture makes: a corpus
# that trains, a bank that loads, a bank with an all-zero kernel row, and
# a bank whose stored mode table is not a list.
TRAINABLE_CORPUS, TINY_BANK = "<trainable corpus>", "<tiny bank>"
ZERO_ROW_BANK, SCALAR_TABLE_BANK = "<zero-row bank>", "<scalar-table bank>"
_TRAIN = ["train-bank", "--corpus", "c.bin", "--output", "b.skb"]
_RD_MODEL = ["rd-model", "--corpus", "c.bin", "--bank", "b.skb", "--output-dir", "out"]
_ANALYZE = ["analyze-transforms", "--corpus", "c.bin", "--output-dir", "out"]
_RD_ROWS = "qp,rate,psnr\n22,{},40\n27,500,38\n32,250,36\n37,125,34\n"
# 4:2:0 files of one 8x8 frame, and of two 16x16 (or eight 8x8) frames
_ONE_FRAME, _TWO_FRAMES = "\0" * 96, "\0" * 768
_ENCODE = ["encode", "--input", "c.yuv", "--width", 8, "--height", 8, "--qp", 22,
           "--output", "o.bin"]

# case -> (files to create, with None for a directory; argv); each is a
# configuration error, so exits 2
BAD_INPUTS = {
    "manifest-not-json": ({"m.json": "{clips"}, _EXPERIMENT),
    "manifest-without-clips": ({"m.json": '{"qps": [22, 27, 32, 37]}'}, _EXPERIMENT),
    "manifest-unknown-clip-key": ({"m.json": f'{{"clips": [{_CLIP}, "fps": 30}}]}}'}, _EXPERIMENT),
    "manifest-text-width": (
        {
            "a.yuv": "\0" * 96,
            "m.json": '{"clips": [{"name": "a", "path": "a.yuv", "width": "64", "height": 8}],'
            ' "strategies": []}',
        },
        _EXPERIMENT,
    ),
    "rd-table-without-psnr": ({"rd.csv": "qp,rate\n22,100\n"}, _BDRATE),
    "rd-table-text-rate": ({"rd.csv": "qp,rate,psnr\n22,fast,30\n"}, _BDRATE),
    "rd-table-nan-rate": ({"rd.csv": _RD_ROWS.format("nan")}, _BDRATE),
    "rd-table-inf-rate": ({"rd.csv": _RD_ROWS.format("inf")}, _BDRATE),
    "decode-directory": ({"d": None}, ["decode", "--input", "d", "--output", "o.yuv"]),
    "train-bank-directory": ({"d": None}, ["train-bank", "--corpus", "d", "--output", "b.skb"]),
    "ingest-below-one-block": (
        {"c.yuv": "\0" * 24},
        ["ingest", "--input", "c.yuv", "--width", 4, "--height", 4],
    ),
    "synthesize-zero-width": (
        {},
        ["synthesize", "--width", 0, "--height", 8, "--frames", 1, "--output", "s.yuv"],
    ),
    "synthesize-zero-frames": (
        {},
        ["synthesize", "--width", 16, "--height", 16, "--frames", 0, "--output", "s.yuv"],
    ),
    "synthesize-negative-seed": (
        {},
        ["synthesize", "--width", 16, "--height", 16, "--frames", 1, "--seed", -1,
         "--output", "s.yuv"],
    ),
    # the training share must leave residuals on both sides
    "analyze-transforms-negative-train-frac": (
        {"c.bin": TRAINABLE_CORPUS},
        _ANALYZE + ["--train-frac", -0.5],
    ),
    "analyze-transforms-train-frac-one": ({"c.bin": TRAINABLE_CORPUS}, _ANALYZE + ["--train-frac", 1]),
    "analyze-transforms-nan-train-frac": (
        {"c.bin": TRAINABLE_CORPUS},
        _ANALYZE + ["--train-frac", "nan"],
    ),
    # an intra mode is one of 0..34
    "analyze-transforms-mode-35": ({"c.bin": TRAINABLE_CORPUS}, _ANALYZE + ["--mode", 35]),
    "analyze-transforms-negative-mode": ({"c.bin": TRAINABLE_CORPUS}, _ANALYZE + ["--mode", -1]),
    "train-bank-negative-samples": (
        {"c.bin": TRAINABLE_CORPUS},
        _TRAIN + ["--samples-per-kernel", -5],
    ),
    "train-bank-negative-digits": (
        {"c.bin": TRAINABLE_CORPUS},
        _TRAIN + ["--samples-per-kernel", 64, "--digits", -1],
    ),
    "train-bank-zero-digits": (
        {"c.bin": TRAINABLE_CORPUS},
        _TRAIN + ["--samples-per-kernel", 64, "--digits", 0],
    ),
    # a kernel record stores its digits as an i16
    "train-bank-digits-above-i16": (
        {"c.bin": TRAINABLE_CORPUS},
        _TRAIN + ["--samples-per-kernel", 64, "--digits", 40000],
    ),
    "train-bank-negative-seed": (
        {"c.bin": TRAINABLE_CORPUS},
        _TRAIN + ["--samples-per-kernel", 32, "--seed", -1],
    ),
    "encode-zero-row-bank": (
        {"z.skb": ZERO_ROW_BANK, "c.yuv": _ONE_FRAME},
        _ENCODE + ["--strategy", "s1", "--bank", "z.skb"],
    ),
    "encode-bank-with-scalar-mode-table": (
        {"t.skb": SCALAR_TABLE_BANK, "c.yuv": _ONE_FRAME},
        _ENCODE + ["--strategy", "s1", "--bank", "t.skb"],
    ),
    "ingest-negative-frames": (
        {"c.yuv": _ONE_FRAME},
        ["ingest", "--input", "c.yuv", "--width", 8, "--height", 8, "--frames", -1],
    ),
    "encode-negative-frames": ({"c.yuv": _TWO_FRAMES}, _ENCODE + ["--frames", -1]),
    # the stream header stores the width as a u16
    "encode-width-above-u16": (
        {"c.yuv": "\0" * (65_536 * 8 * 3 // 2)},
        ["encode", "--input", "c.yuv", "--width", 65_536, "--height", 8, "--qp", 22, "--output", "o.bin"],
    ),
    "extract-residuals-negative-frames": (
        {"c.yuv": _TWO_FRAMES},
        ["extract-residuals", "--clip", "c.yuv:16x16", "--frames", -1, "--output", "r.bin"],
    ),
    "rd-model-qp-above-max": (
        {"c.bin": TRAINABLE_CORPUS, "b.skb": TINY_BANK},
        _RD_MODEL + ["--qp", 10000],
    ),
    "rd-model-qp-below-zero": (
        {"c.bin": TRAINABLE_CORPUS, "b.skb": TINY_BANK},
        _RD_MODEL + ["--qp", -10000],
    ),
    "manifest-qp-99": (
        {"a.yuv": _ONE_FRAME, "m.json": f'{{"clips": [{_CLIP}}}], "strategies": [], "qps": [99]}}'},
        _EXPERIMENT,
    ),
    "manifest-no-qps": (
        {"a.yuv": _ONE_FRAME, "m.json": f'{{"clips": [{_CLIP}}}], "strategies": [], "qps": []}}'},
        _EXPERIMENT,
    ),
    "manifest-typo-key": (
        {
            "a.yuv": _ONE_FRAME,
            "m.json": f'{{"clips": [{_CLIP}}}], "strategies": [], "qp": [99], "strategy": ["s9"]}}',
        },
        _EXPERIMENT,
    ),
    "manifest-seed": (
        {"a.yuv": _ONE_FRAME, "m.json": f'{{"clips": [{_CLIP}}}], "strategies": [], "seed": 0}}'},
        _EXPERIMENT,
    ),
    # a value is neither converted to its field's type nor clamped
    "manifest-fractional-timing-runs": (
        {
            "a.yuv": _ONE_FRAME,
            "m.json": f'{{"clips": [{_CLIP}}}], "strategies": [], "timing_runs": 2.7}}',
        },
        _EXPERIMENT,
    ),
    "manifest-negative-timing-runs": (
        {
            "a.yuv": _ONE_FRAME,
            "m.json": f'{{"clips": [{_CLIP}}}], "strategies": [], "timing_runs": -3}}',
        },
        _EXPERIMENT,
    ),
    "manifest-repeated-strategy": (
        {
            "a.yuv": _ONE_FRAME,
            "m.json": f'{{"clips": [{_CLIP}}}], "strategies": ["dct_only", "dct_only"]}}',
        },
        _EXPERIMENT,
    ),
    "manifest-repeated-clip-name": (
        {"a.yuv": _ONE_FRAME, "m.json": f'{{"clips": [{_CLIP}}}, {_CLIP}}}], "strategies": []}}'},
        _EXPERIMENT,
    ),
    "manifest-saab-without-bank-path": (
        {"a.yuv": _ONE_FRAME, "m.json": f'{{"clips": [{_CLIP}}}], "strategies": ["s3"]}}'},
        _EXPERIMENT,
    ),
    "manifest-numeric-bank-path": (
        {
            "a.yuv": _ONE_FRAME,
            "m.json": f'{{"clips": [{_CLIP}}}], "strategies": [], "bank_path": 5}}',
        },
        _EXPERIMENT,
    ),
    "extract-residuals-clip-frames-suffix": (
        {"c.yuv": _TWO_FRAMES},
        ["extract-residuals", "--clip", "c.yuv:16x16:1", "--output", "r.bin"],
    ),
    "extract-residuals-repeated-qp": (
        {"c.yuv": _TWO_FRAMES},
        ["extract-residuals", "--clip", "c.yuv:16x16", "--qp", 22, "--qp", 22, "--output", "r.bin"],
    ),
}


@pytest.fixture(scope="module")
def built_files(damage_inputs, tiny_bank, bank_bytes_with_table):
    _, _, intact = damage_inputs
    first = tiny_bank.kernels[0]
    matrix = first.matrix.copy()
    matrix[7] = 0.0
    zero_row = replace(tiny_bank, kernels=(replace(first, matrix=matrix),) + tiny_bank.kernels[1:])
    return {
        TRAINABLE_CORPUS: intact["corpus"],
        TINY_BANK: tiny_bank.to_bytes(),
        ZERO_ROW_BANK: zero_row.to_bytes(),
        SCALAR_TABLE_BANK: bank_bytes_with_table(tiny_bank, apply_map=5),
    }


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_one_line_error(case, tmp_path, monkeypatch, capsys, built_files):
    files, argv = BAD_INPUTS[case]
    for name, text in files.items():
        if text is None:
            (tmp_path / name).mkdir()
        elif text in built_files:
            (tmp_path / name).write_bytes(built_files[text])
        else:
            (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)  # no output left behind


@pytest.fixture(scope="module")
def damage_inputs(tmp_path_factory, tiny_bank, tiny_records, tiny_clip):
    """A bank file and the intact bytes of an s3 stream and of a corpus that
    trains: the first 64 records of every kernel group."""
    directory = tmp_path_factory.mktemp("cli-damage")
    bank = directory / "bank.skb"
    tiny_bank.save(str(bank))
    stream, _ = codec.encode_sequence(tiny_clip[:1], 22, codec.StrategyConfig("s3", tiny_bank))
    keep = set()
    for group in TRAIN_GROUPS:
        keep.update(np.flatnonzero(np.isin(tiny_records.mode, group))[:64].tolist())
    corpus = directory / "corpus.bin"
    pipeline.save_residual_corpus(str(corpus), [tiny_records[i] for i in sorted(keep)])
    return directory, bank, {"stream": stream, "corpus": corpus.read_bytes()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["stream", "corpus"]),
    how=st.sampled_from(["random", "truncate", "flip"]),
    damage=st.data(),
)
def test_damaged_input_exits_cleanly(damage_inputs, kind, how, damage):
    """`decode` of a damaged stream and `train-bank` on a damaged corpus exit
    0, 2 or 3; a nonzero exit prints one `error:` line and no traceback."""
    directory, bank, intact = damage_inputs
    raw = intact[kind]
    if how == "random":
        # with or without the file's magic, so some reach the header checks
        magic = damage.draw(st.sampled_from([b"", raw[:4]]), label="magic")
        raw = magic + damage.draw(st.binary(max_size=2048), label="body")
    elif how == "truncate":
        raw = raw[: damage.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        # half of the flips land in the first 64 bytes, where the headers are
        bit = damage.draw(
            st.one_of(st.integers(0, 8 * 64 - 1), st.integers(0, 8 * len(raw) - 1)), label="bit"
        )
        raw = bytearray(raw)
        raw[bit // 8] ^= 1 << (bit % 8)
    path = directory / f"damaged-{kind}.bin"
    path.write_bytes(bytes(raw))
    if kind == "stream":
        argv = ["decode", "--input", path, "--bank", bank, "--output", directory / "out.yuv"]
    else:
        argv = ["train-bank", "--corpus", path, "--output", directory / "out.skb",
                "--samples-per-kernel", 64]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, cli.EXIT_CONFIG, cli.EXIT_DATA), err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
