import math
from dataclasses import replace

import numpy as np
import pytest

from saabcodec import analysis, metrics, transforms as tf, video
from saabcodec.errors import ExperimentStageError, InsufficientDataError, InvalidInputError, NoOverlapError

_CLIP = analysis.ClipSpec(name="c", path="/c.yuv", width=16, height=16)

BASE = [analysis.RDPoint(qp=37 - 5 * k, rate=1000.0 * 2**k, psnr=30.0 + 2 * k) for k in range(4)]


def _scale_rate(points, f):
    return [analysis.RDPoint(p.qp, p.rate * f, p.psnr) for p in points]


def _shift_psnr(points, d):
    return [analysis.RDPoint(p.qp, p.rate, p.psnr + d) for p in points]


def test_bd_equal_curves_zero():
    bd = analysis.bd_rate(BASE, list(BASE))
    assert abs(bd.bdbr_percent) < 1e-9
    assert abs(bd.bdpsnr_db) < 1e-9


def test_bd_rate_scaling():
    bd = analysis.bd_rate(BASE, _scale_rate(BASE, 1.10))
    assert bd.bdbr_percent == pytest.approx(10.0, abs=1e-6)


def test_bd_psnr_shift():
    bd = analysis.bd_rate(BASE, _shift_psnr(BASE, 1.0))
    assert bd.bdpsnr_db == pytest.approx(1.0, abs=1e-6)


def test_bd_antisymmetry():
    test = _shift_psnr(BASE, 0.05)
    fwd = analysis.bd_rate(BASE, test)
    rev = analysis.bd_rate(test, BASE)
    assert abs(fwd.bdbr_percent + rev.bdbr_percent) < 0.05
    assert abs(fwd.bdpsnr_db + rev.bdpsnr_db) < 1e-6


def test_bd_no_overlap():
    far = _shift_psnr(BASE, 50.0)
    with pytest.raises(NoOverlapError):
        analysis.bd_rate(BASE, far)


def test_bd_needs_four_points():
    with pytest.raises(InsufficientDataError):
        analysis.bd_rate(BASE[:3], BASE)
    with pytest.raises(InsufficientDataError):  # four points, three distinct rates
        analysis.bd_rate(BASE[:3] + BASE[:1], BASE)


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_bd_rejects_non_finite_rate(rate):
    with pytest.raises(InvalidInputError):
        analysis.bd_rate([analysis.RDPoint(22, rate, 40.0)] + BASE, BASE)


def test_bd_excludes_lossless_points():
    padded = BASE + [analysis.RDPoint(qp=0, rate=1e6, psnr=math.inf)]
    bd = analysis.bd_rate(padded, padded)
    assert abs(bd.bdbr_percent) < 1e-9


def test_psnr_basics():
    assert analysis.psnr_from_sse(0.0, 64) == math.inf
    # one of 64 pixels off by 255
    expected = 10 * math.log10(255**2 / (255**2 / 64))
    assert analysis.psnr_from_sse(255.0**2, 64) == pytest.approx(expected)
    with pytest.raises(InvalidInputError):
        analysis.psnr_from_sse(1.0, 0)


def test_timing_ratio_mean_of_ratios():
    anchor = {22: 1.0, 27: 1.0, 32: 1.0, 37: 1.0}
    test = {22: 1.0, 27: 2.0, 32: 3.0, 37: 4.0}
    assert analysis.timing_ratio(test, anchor) == pytest.approx(250.0)
    with pytest.raises(InvalidInputError):
        analysis.timing_ratio({22: 1.0}, anchor)


def test_saab_usage():
    usage = analysis.saab_usage({22: (25, 100), 37: (75, 100)})
    assert usage["per_qp"][22] == pytest.approx(25.0)
    assert usage["average"] == pytest.approx(50.0)
    with pytest.raises(InsufficientDataError):
        analysis.saab_usage({})


def test_manifest_json_roundtrip(tmp_path):
    m = analysis.ExperimentManifest(
        clips=(analysis.ClipSpec(name="a", path="/x.yuv", width=64, height=48, frames=5),),
        qps=(22, 37),
        strategies=("s3",),
        bank_path="/bank.skb",
        timing_runs=1,
    )
    path = tmp_path / "manifest.json"
    clip = '{"name": "a", "path": "/x.yuv", "width": 64, "height": 48, "frames": 5}'
    path.write_text(
        f'{{"clips": [{clip}], "qps": [22, 37], "strategies": ["s3"], '
        '"bank_path": "/bank.skb", "timing_runs": 1}'
    )
    assert analysis.ExperimentManifest.from_json(str(path)) == m
    # keys left out keep the dataclass defaults; the default Saab strategies need a bank_path
    path.write_text(f'{{"clips": [{clip}], "bank_path": "/bank.skb"}}')
    assert analysis.ExperimentManifest.from_json(str(path)) == analysis.ExperimentManifest(
        clips=m.clips, bank_path="/bank.skb"
    )


@pytest.mark.parametrize(
    "fields,frames",
    [
        pytest.param({"timing_runs": 0}, 0, id="no-timing-runs"),
        pytest.param({"qps": (22, 22, 27, 32)}, 0, id="repeated-qp"),
        pytest.param({"qps": ()}, 0, id="no-qps"),
        pytest.param({"qps": (22, 27, 99)}, 0, id="qp-99-last"),
        pytest.param({}, -1, id="negative-frames"),
        pytest.param({"strategies": ("s9",)}, 0, id="unknown-strategy"),
        pytest.param({"clips": (_CLIP, replace(_CLIP, path="/d.yuv"))}, 0, id="repeated-clip-name"),
        pytest.param({"strategies": ("dct_only", "s3")}, 0, id="saab-without-bank-path"),
    ],
)
def test_manifest_checked_where_built(fields, frames):
    """A manifest built in code is checked as it is built, so no bad one
    reaches run_experiment to code or write anything."""
    clip = replace(_CLIP, frames=frames)
    with pytest.raises(InvalidInputError):
        analysis.ExperimentManifest(**{"clips": (clip,), "strategies": (), **fields})


def test_experiment_checks_decoded_planes(tmp_path, monkeypatch):
    """The experiment compares the decoded planes with the encoder's, not
    their SSE: a decode mirrored about the original, 2*orig - recon, has the
    encoder's SSE and is still rejected."""
    rng = np.random.default_rng(7)
    planes = [rng.integers(100, 156, size=(32, 32)).astype(np.uint8) for _ in range(2)]
    path = str(tmp_path / "grey.yuv")
    video.write_yuv(path, planes)
    clip = analysis.ClipSpec(name="grey", path=path, width=32, height=32)
    manifest = analysis.ExperimentManifest(clips=(clip,), qps=(37,), strategies=(), timing_runs=2)
    analysis.run_experiment(manifest, str(tmp_path / "ok"))

    decode = analysis.decode_sequence

    def mirrored(stream, bank):
        decoded, stats = decode(stream, bank)
        mirror = [2 * o.astype(np.int32) - d for o, d in zip(planes, decoded)]
        assert all(m.min() >= 0 and m.max() <= 255 for m in mirror)  # no clipping
        assert any(not np.array_equal(m, d) for m, d in zip(mirror, decoded))
        return [m.astype(np.uint8) for m in mirror], stats

    monkeypatch.setattr(analysis, "decode_sequence", mirrored)
    with pytest.raises(ExperimentStageError):
        analysis.run_experiment(manifest, str(tmp_path / "mirrored"))


def test_experiment_outputs(experiment_report):
    import os

    out = experiment_report["output_dir"]
    for name in ("rd_points.csv", "bd_summary.csv", "usage.csv", "timing.csv", "report.json"):
        assert os.path.exists(os.path.join(out, name)), name
    for clip, cdata in experiment_report["clips"].items():
        for strategy, entry in cdata["strategies"].items():
            assert len(entry["points"]) == 4
            rates = [p.rate for p in sorted(entry["points"], key=lambda p: p.qp)]
            assert all(a >= b for a, b in zip(rates, rates[1:])), "rate falls with QP"
            if strategy == "dct_only":
                assert entry["usage"]["average"] == 0.0
            if strategy == "s1":
                # substitution strategy codes every eligible-mode block with Saab
                assert entry["usage"]["average"] > 0.0


def test_reports_from_moments_match_the_coefficients(monkeypatch, tiny_records, tiny_bank):
    """The reports read every statistic off a residual set's second moment;
    on integer residuals each equals its formula over the coefficients."""
    blocks = tiny_records.residual[tiny_records.mode == 0].reshape(-1, 64).astype(np.float64)
    train, ev = blocks[: len(blocks) // 2], blocks[len(blocks) // 2 :]
    report = analysis.transform_comparison_report(train, ev)
    learned = {"klt": tf.learn_klt, "saab1": tf.learn_saab1, "saab2": tf.learn_saab2}
    for name, t in report["transforms"].items():
        y = ev @ (tf.DCT_64 if name == "dct" else learned[name](train).matrix).T
        energy = np.mean(y * y, axis=0)[t["position_order"]]
        assert np.all(np.diff(energy) <= 1e-9 * energy[0]), name
        want = np.cumsum(energy) / (64 * report["input_variance"])
        np.testing.assert_allclose(t["compaction"], want, rtol=1e-9, atol=0)
        moment = y.T @ y / len(y)
        want = np.sum(np.abs(moment)) - np.sum(np.abs(np.diag(moment)))
        assert t["decorrelation_cost"] == pytest.approx(want, rel=1e-9), name

    calls = []

    def coeff_stats(matrix, moment):
        calls.append((matrix, metrics.coeff_stats(matrix, moment)))
        return calls[-1][1]

    monkeypatch.setattr(analysis, "coeff_stats", coeff_stats)
    modes = sorted(analysis.rd_model_report(tiny_records, tiny_bank, 37)["per_mode"])
    assert len(calls) == 2 * len(modes)
    for mode, saab, dct in zip(modes, calls[::2], calls[1::2]):
        assert saab[0] is tiny_bank.kernel_for_mode(mode).matrix and dct[0] is tf.DCT_64
        x = tiny_records.residual[tiny_records.mode == mode].reshape(-1, 64).astype(np.float64)
        for matrix, variance in (saab, dct):
            np.testing.assert_allclose(variance, (x @ matrix.T).var(axis=0), rtol=1e-9, atol=0)


def test_rd_model_report(residual_records, bank):
    report = analysis.rd_model_report(residual_records[:3000], bank, qp=37)
    assert set(report["per_mode"]) <= set(range(35))
    assert math.isfinite(report["avg_delta_kappa"])
    assert math.isfinite(report["avg_delta_sigma2"])
