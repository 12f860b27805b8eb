import csv
import json

import numpy as np
import pytest

from saabcodec import cli, video


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
    assert run(["train-bank", "--corpus", corpus, "--output", bank,
                "--samples-per-kernel", 300, "--seed", 1]) == 0
    capsys.readouterr()

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
    # missing file -> config error
    assert run(["ingest", "--input", workdir / "nope.yuv",
                "--width", 64, "--height", 48]) == cli.EXIT_CONFIG


_EXPERIMENT = ["experiment", "--manifest", "m.json", "--output-dir", "out"]
_BDRATE = ["bdrate", "--anchor", "rd.csv", "--test", "rd.csv"]
_CLIP = '{"name": "a", "path": "a.yuv", "width": 8, "height": 8'

# case -> (files to create, with None for a directory; argv)
BAD_INPUTS = {
    "manifest-not-json": ({"m.json": "{clips"}, _EXPERIMENT),
    "manifest-without-clips": ({"m.json": '{"qps": [22, 27, 32, 37]}'}, _EXPERIMENT),
    "manifest-unknown-clip-key": ({"m.json": f'{{"clips": [{_CLIP}, "fps": 30}}]}}'}, _EXPERIMENT),
    "rd-table-without-psnr": ({"rd.csv": "qp,rate\n22,100\n"}, _BDRATE),
    "rd-table-text-rate": ({"rd.csv": "qp,rate,psnr\n22,fast,30\n"}, _BDRATE),
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
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_one_line_error(case, tmp_path, monkeypatch, capsys):
    files, argv = BAD_INPUTS[case]
    for name, text in files.items():
        if text is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(argv) in (cli.EXIT_CONFIG, cli.EXIT_DATA)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
