"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned next to each assertion.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import sys

import numpy as np
import pytest

from saabcodec import analysis, codec, metrics, pipeline, transforms as tf, video
from saabcodec.bitstream import pack_bits, unpack_bits
from saabcodec.linalg import covariance

QPS = (22, 27, 32, 37)

ROUNDTRIP_TOL = 1e-9
ORTHO_TOL = 1e-9
DC_DOT_TOL = 1e-10
DECORR_REL_TOL = 1e-6
KAPPA_BRANCH_TOL = 1e-12
BD_ANALYTIC_TOL = 1e-6
BD_ANTISYM_TOL = 0.05
PRECISION_ABS_TOL = 0.3
COMPACTION_WIN_FRACTION = 0.60


def _report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    # pytest swallows stdout of passing tests; mirror the verdict to the real
    # stream so the one-line-per-criterion log survives in captured output
    print(line, file=sys.__stdout__)
    assert ok, line


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def random_kernels():
    rng = np.random.default_rng(100)
    d = rng.laplace(0, 6, size=(2000, 64))
    return {
        "saab1": tf.learn_saab1(d),
        "saab2": tf.learn_saab2(d),
        "klt": tf.learn_klt(d),
    }


@pytest.fixture(scope="module")
def planar_residuals(residual_records):
    blocks = residual_records.residual[residual_records.mode == 0].astype(np.float64)
    assert blocks.shape[0] >= 6000, f"need 6000 planar residuals, got {blocks.shape[0]}"
    return blocks.reshape(blocks.shape[0], 64)


@pytest.fixture(scope="module")
def eval_settings(clip_a_planes, clip_b_planes):
    """Planar residuals for four separate (clip, QP) settings."""
    settings = {}
    for name, planes, qps in (
        ("clipA", clip_a_planes, (22, 37)),
        ("clipB", clip_b_planes, (27, 32)),
    ):
        for qp in qps:
            recs = pipeline.extract_residuals([planes[:15]], qps=(qp,))
            blocks = recs.residual[recs.mode == 0].astype(np.float64)
            settings[(name, qp)] = blocks.reshape(blocks.shape[0], 64)
    return settings


# --------------------------------------------------------------- criteria


def test_criterion_01_transform_roundtrips(random_kernels):
    rng = np.random.default_rng(101)
    x = rng.normal(0, 25, size=(10_000, 64))
    # Each transform function takes the whole (10000, 64) set in one call.
    worst_rt = float(np.max(np.abs(tf.dct_inverse(tf.dct_forward(x)) - x)))
    worst_orth = float(np.max(np.abs(tf.DCT_64 @ tf.DCT_64.T - np.eye(64))))

    for name, fwd, inv in (
        ("klt", tf.saab_forward, tf.saab_inverse),
        ("saab1", tf.saab_forward, tf.saab_inverse),
        ("saab2", tf.saab2_forward, tf.saab2_inverse),
    ):
        k = random_kernels[name]
        worst_orth = max(worst_orth, k.orthonormality_error())
        for bias_mode in ("centered", "raw"):
            back = inv(k, fwd(k, x, bias_mode=bias_mode), bias_mode=bias_mode)
            worst_rt = max(worst_rt, float(np.max(np.abs(back - x))))

    ok = worst_rt < ROUNDTRIP_TOL and worst_orth < ORTHO_TOL
    _report(1, "transform round trips and orthonormality on 1e4 blocks per kind",
            ok, f"max roundtrip {worst_rt:.2e}, max orth {worst_orth:.2e}")


def test_criterion_02_saab_construction_fidelity():
    ok = True
    detail = []
    for seed in (7, 8, 9):
        rng = np.random.default_rng(seed)
        d = rng.laplace(0, 10, size=(1500, 64))
        k = tf.learn_saab1(d)
        a0_err = float(np.max(np.abs(k.matrix[0] - 1.0 / 8.0)))
        dots = float(np.max(np.abs(k.matrix[1:] @ k.matrix[0])))
        bias_want = float(np.max(np.linalg.norm(d, axis=1)))
        bias_err = float(np.max(np.abs(k.bias[1:] - bias_want)))
        ok &= a0_err < 1e-12 and dots < DC_DOT_TOL and k.bias[0] == 0.0 and bias_err < 1e-9
        detail.append(f"seed {seed}: dc_err {a0_err:.1e} dot {dots:.1e}")
    _report(2, "Saab construction: fixed DC kernel, AC orthogonality, bias contract",
            ok, "; ".join(detail))


def test_criterion_03_klt_optimality(planar_residuals):
    x = planar_residuals[:2000]
    klt = tf.learn_klt(x)
    xc = x - x.mean(axis=0)
    y_klt = xc @ klt.matrix.T
    y_dct = xc @ tf.DCT_64.T
    total_var = float(np.sum(np.var(y_klt, axis=0)))
    rel_cost = metrics.decorrelation_cost(covariance(y_klt)) / total_var
    var = float(xc.var())
    c_klt = metrics.energy_compaction(covariance(y_klt), var).values
    c_dct = metrics.energy_compaction(covariance(y_dct), var).values
    dominates = bool(np.all(c_klt >= c_dct - 1e-12))
    ok = rel_cost < DECORR_REL_TOL and dominates
    _report(3, "KLT optimality: ~zero decorrelation cost and compaction dominance",
            ok, f"relative cost {rel_cost:.2e}, dominance {dominates}")


def test_criterion_04_saab_vs_dct_compaction(planar_residuals, eval_settings):
    train, held_out = planar_residuals[:5000], planar_residuals[5000:]
    assert held_out.shape[0] >= 1000
    saab1 = tf.learn_saab1(train)
    klt = tf.learn_klt(train)
    var = float(held_out.var())
    y_saab = held_out @ saab1.matrix.T
    y_dct = held_out @ tf.DCT_64.T
    y_klt = (held_out - train.mean(axis=0)) @ klt.matrix.T
    c_saab = metrics.energy_compaction(covariance(y_saab), var).values
    c_dct = metrics.energy_compaction(covariance(y_dct), var).values
    win_frac = float(np.mean(c_saab >= c_dct - 1e-12))

    cost_klt = metrics.decorrelation_cost(covariance(y_klt))
    cost_saab = metrics.decorrelation_cost(covariance(y_saab))
    costs = []
    for (name, qp), blocks in eval_settings.items():
        assert blocks.shape[0] >= 50, f"too few planar residuals for {name} qp {qp}"
        costs.append(
            (
                metrics.decorrelation_cost(covariance(blocks @ saab1.matrix.T)),
                metrics.decorrelation_cost(covariance(blocks @ tf.DCT_64.T)),
            )
        )
    avg_saab = float(np.mean([c[0] for c in costs]))
    avg_dct = float(np.mean([c[1] for c in costs]))
    ok = (
        win_frac >= COMPACTION_WIN_FRACTION
        and cost_klt < cost_saab
        and len(costs) >= 3
        and avg_saab < avg_dct
    )
    _report(4, "Saab-vs-DCT compaction and decorrelation ordering",
            ok, f"win {100 * win_frac:.0f}%, C(klt) {cost_klt:.1f} < C(saab) {cost_saab:.1f}, "
                f"avg C(saab) {avg_saab:.1f} vs C(dct) {avg_dct:.1f}")


def test_criterion_05_rd_model_monotone():
    sigmas = np.logspace(math.log10(0.011), math.log10(99.0), 120)
    cells = 0
    violations = 0
    for qp in QPS:
        q, lam = metrics.qp_to_qstep(qp), metrics.qp_to_lambda(qp)
        k = np.array([metrics.kappa(s, q, lam) for s in sigmas])
        diffs = np.diff(k)
        cells += diffs.size
        violations += int(np.sum(diffs <= 0))
    ok = violations == 0
    _report(5, "kappa strictly increasing in sigma over the QP grid",
            ok, f"{cells} cells, {violations} violations")


def test_criterion_06_kappa_branch_value():
    got = metrics.kappa(1.0, 10.0, 1.0)
    err = abs(got - 100.0 / 112.0)
    _report(6, "kappa(sigma=1, Q=10) = 100/112", err < KAPPA_BRANCH_TOL, f"err {err:.2e}")


def test_criterion_07_codec_mirror_and_fuzz(bank, clip_a_planes, clip_b_planes):
    clips = [
        clip_a_planes[:4],
        clip_b_planes[:4],
        video.synthesize_luma_clip(96, 64, 6, seed=31),
    ]
    mismatches = 0
    for planes in clips:
        for strategy in codec.STRATEGIES:
            cfg = codec.StrategyConfig(strategy, bank)
            for qp in QPS:
                recon_out = []
                stream, _ = codec.encode_sequence(planes, qp, cfg, recon_out=recon_out)
                decoded, _ = codec.decode_sequence(stream, cfg.bank)
                for a, b in zip(recon_out, decoded):
                    if not np.array_equal(a, b):
                        mismatches += 1

    rng = np.random.default_rng(200)
    fuzz_fail = 0
    n_fuzz = 100_000
    counts = rng.integers(0, 24, size=n_fuzz)
    rows = np.zeros((n_fuzz, 64), dtype=np.int64)
    for levels, n in zip(rows, counts.tolist()):
        if n:
            pos = rng.choice(64, size=n, replace=False)
            mags = rng.geometric(0.3, size=n)
            signs = rng.integers(0, 2, size=n) * 2 - 1
            levels[pos] = mags * signs
    # every row in one writer call, parsed back at one position
    values, lengths = codec.encode_levels(rows)
    row_bits = lengths.sum(axis=1)
    bits, p = unpack_bits(pack_bits(values, lengths)), 0
    for levels, nbits in zip(rows, row_bits.tolist()):
        out = np.zeros(64, dtype=np.int64)
        end = codec.decode_levels(bits, p, out)
        if not np.array_equal(out, levels) or end - p != nbits:
            fuzz_fail += 1
        p = end
    fuzz_fail += int(np.count_nonzero(row_bits != codec.level_bit_cost(rows)))
    ok = mismatches == 0 and fuzz_fail == 0
    _report(7, "codec mirror image (3 clips x 4 QPs x 4 strategies) + 1e5 level fuzz",
            ok, f"{mismatches} plane mismatches, {fuzz_fail} fuzz failures")


def test_criterion_08_rdo_dominance(bank, clip_a_planes):
    cfg = codec.StrategyConfig("s3", bank)
    checked = 0
    bad = 0
    for qp in QPS:
        _, stats = codec.encode_sequence(clip_a_planes[:6], qp, cfg)
        for fs in stats:
            checked += len(fs.blocks)
            bad += int(np.count_nonzero(fs.blocks.j_chosen > fs.blocks.j_dct))
    ok = bad == 0 and checked > 0
    _report(8, "per-block chosen J <= DCT candidate J under s3",
            ok, f"{checked} blocks, {bad} violations")


def test_criterion_09_directional_coding_gain(experiment_report):
    bd = {
        clip: {
            s: cdata["strategies"][s]["bd"].bdbr_percent for s in ("s1", "s2", "s3")
        }
        for clip, cdata in experiment_report["clips"].items()
    }
    s3_negative = all(v["s3"] < 0 for v in bd.values())
    avg = {s: float(np.mean([v[s] for v in bd.values()])) for s in ("s1", "s2", "s3")}
    ordered = avg["s3"] <= avg["s2"] <= avg["s1"]
    ok = s3_negative and ordered and len(bd) >= 2
    _report(9, "BDBR(s3) < 0 per clip and avg BDBR s3 <= s2 <= s1",
            ok, f"avg s1 {avg['s1']:.3f}, s2 {avg['s2']:.3f}, s3 {avg['s3']:.3f}")


def test_criterion_10_p_saab_reporting(experiment_report, tmp_path, clip_files, bank_file):
    in_range = True
    for clip, cdata in experiment_report["clips"].items():
        usage = cdata["strategies"]["s3"]["usage"]
        for qp, pct in usage["per_qp"].items():
            in_range &= 0.0 < pct < 100.0

    from saabcodec import cli

    spec = clip_files["clipA"]
    stream = tmp_path / "c10.bin"
    enc_stats = tmp_path / "c10_enc.json"
    dec_stats = tmp_path / "c10_dec.json"
    rc1 = cli.main([
        "encode", "--input", spec.path, "--width", str(spec.width),
        "--height", str(spec.height), "--frames", "5", "--qp", "32",
        "--strategy", "s3", "--bank", bank_file,
        "--output", str(stream), "--stats", str(enc_stats),
    ])
    rc2 = cli.main([
        "decode", "--input", str(stream), "--bank", bank_file,
        "--output", str(tmp_path / "c10.yuv"), "--stats", str(dec_stats),
    ])
    import json

    enc = json.loads(enc_stats.read_text())
    dec = json.loads(dec_stats.read_text())
    cli_value = float(enc["p_saab_percent"])
    decode_side = 100.0 * dec["saab_blocks"] / dec["blocks"]
    exact = rc1 == 0 and rc2 == 0 and cli_value == decode_side
    ok = in_range and exact
    _report(10, "0 < P_Saab < 100 under s3; CLI value equals decode-side flag count",
            ok, f"cli {cli_value:.4f} vs decode {decode_side:.4f}")


def test_criterion_11_precision_sweep(experiment_report, bank, clip_files, anchor_points):
    # round(matrix, 20) is the identity for float64, so the full-precision s3
    # points from the experiment serve as the d=20 reference
    b20 = bank.rounded(20)
    for a, b in zip(bank.kernels, b20.kernels):
        assert np.array_equal(a.matrix, b.matrix)

    ok = True
    details = []
    for clip_name, spec in clip_files.items():
        planes = video.read_yuv(spec.path, spec.width, spec.height)[: spec.frames]
        n_pix = sum(p.size for p in planes)
        bdbr = {
            20: experiment_report["clips"][clip_name]["strategies"]["s3"]["bd"].bdbr_percent
        }
        for d in (1, 3):
            cfg = codec.StrategyConfig("s3", bank.rounded(d))
            points = []
            for qp in QPS:
                _, stats = codec.encode_sequence(planes, qp, cfg)
                points.append(
                    analysis.RDPoint(
                        qp=qp,
                        rate=sum(s.total_bits for s in stats) / len(planes),
                        psnr=analysis.psnr_from_sse(sum(s.sse for s in stats), n_pix),
                    )
                )
            bdbr[d] = analysis.bd_rate(anchor_points[clip_name], points).bdbr_percent
        err1 = abs(bdbr[1] - bdbr[20])
        err3 = abs(bdbr[3] - bdbr[20])
        ok &= err3 <= err1 and err3 <= PRECISION_ABS_TOL
        details.append(f"{clip_name}: |d1-d20| {err1:.3f}, |d3-d20| {err3:.3f}")
    _report(11, "kernel precision sweep: d=3 within 0.3% of d=20 and closer than d=1",
            ok, "; ".join(details))


def test_criterion_12_bd_rate_analytic():
    base = [
        analysis.RDPoint(qp=37 - 5 * k, rate=1000.0 * 2**k, psnr=30.0 + 2 * k)
        for k in range(4)
    ]
    equal = analysis.bd_rate(base, list(base))
    scaled = analysis.bd_rate(
        base, [analysis.RDPoint(p.qp, p.rate * 1.10, p.psnr) for p in base]
    )
    shifted = analysis.bd_rate(
        base, [analysis.RDPoint(p.qp, p.rate, p.psnr + 1.0) for p in base]
    )
    nudged = [analysis.RDPoint(p.qp, p.rate, p.psnr + 0.05) for p in base]
    fwd = analysis.bd_rate(base, nudged).bdbr_percent
    rev = analysis.bd_rate(nudged, base).bdbr_percent
    ok = (
        abs(equal.bdbr_percent) < BD_ANALYTIC_TOL
        and abs(scaled.bdbr_percent - 10.0) < BD_ANALYTIC_TOL
        and abs(shifted.bdpsnr_db - 1.0) < BD_ANALYTIC_TOL
        and abs(fwd + rev) < BD_ANTISYM_TOL
    )
    _report(12, "BD-rate analytic cases (0%, +10%, +1 dB, antisymmetry)",
            ok, f"scaled {scaled.bdbr_percent:.6f}, shifted {shifted.bdpsnr_db:.6f}")


def test_criterion_13_encr_formula():
    anchor = {22: 1.0, 27: 1.0, 32: 1.0, 37: 1.0}
    test = {22: 1.0, 27: 2.0, 32: 3.0, 37: 4.0}
    got = analysis.timing_ratio(test, anchor)
    ok = got == 250.0
    _report(13, "EncR mean-of-ratios: {1,2,3,4} -> 250%", ok, f"got {got}")
