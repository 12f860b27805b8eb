"""Rate-distortion analysis: PSNR, Bjontegaard deltas, usage/timing
summaries, transform comparison reports, and the experiment driver that
turns a manifest of clips into CSV/JSON result tables.
"""

import csv
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, fields

import numpy as np

from .codec import STRATEGIES, StrategyConfig, check_qp, check_qps, decode_sequence
from .codec import encode_sequence, summarize
from .errors import (
    ExperimentStageError,
    InsufficientDataError,
    InvalidInputError,
    NoOverlapError,
)
from .kernelio import KernelBank
from .linalg import VEC_LEN, covariance, transform_moment
from .metrics import coeff_stats, compare_transforms, decorrelation_cost
from .metrics import energy_compaction, residual_sample_variance
from .transforms import DCT_64, learn_klt, learn_saab1, learn_saab2
# Unused here: bench/spans.py's WRAP_POINTS patch these names in this module.
from .transforms import dct_forward, saab2_forward, saab_forward  # noqa: F401
from .video import read_yuv

PEAK = 255.0


def psnr_from_sse(sse, n_pixels):
    if n_pixels <= 0:
        raise InvalidInputError("need at least one pixel")
    if sse <= 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK * n_pixels / sse)


@dataclass(frozen=True)
class RDPoint:
    qp: int
    rate: float  # bits per frame
    psnr: float  # dB


@dataclass(frozen=True)
class BDStats:
    bdbr_percent: float
    bdpsnr_db: float


def _curve_arrays(points, label):
    if not all(0 < p.rate < math.inf for p in points):  # NaN fails both
        raise InvalidInputError(f"{label}: rates must be positive and finite")
    pts = sorted((p for p in points if math.isfinite(p.psnr)), key=lambda p: p.rate)
    n_rates = len({p.rate for p in pts})
    if n_rates < 4:
        raise InsufficientDataError(
            f"{label}: need finite RD points at 4 or more distinct rates for a cubic fit, "
            f"got {n_rates}"
        )
    rates = np.array([p.rate for p in pts], dtype=np.float64)
    psnrs = np.array([p.psnr for p in pts], dtype=np.float64)
    return np.log10(rates), psnrs


def _poly_average(x, y, lo, hi):
    coeffs = np.polyfit(x, y, 3)
    integ = np.polyint(coeffs)
    return (np.polyval(integ, hi) - np.polyval(integ, lo)) / (hi - lo)


def bd_rate(anchor_points, test_points):
    """Bjontegaard deltas of `test` against `anchor` via cubic fits.

    BDBR integrates log10(rate) over the common PSNR interval; BDPSNR
    integrates PSNR over the common log-rate interval.  Negative BDBR
    means the test codec needs fewer bits at equal quality.
    """
    la, pa = _curve_arrays(anchor_points, "anchor")
    lt, pt = _curve_arrays(test_points, "test")

    lo = max(pa.min(), pt.min())
    hi = min(pa.max(), pt.max())
    if hi <= lo:
        raise NoOverlapError(
            f"PSNR ranges do not overlap: anchor [{pa.min():.3f}, {pa.max():.3f}] "
            f"vs test [{pt.min():.3f}, {pt.max():.3f}]"
        )
    avg_log_diff = _poly_average(pt, lt, lo, hi) - _poly_average(pa, la, lo, hi)
    bdbr = (10.0 ** avg_log_diff - 1.0) * 100.0

    rlo = max(la.min(), lt.min())
    rhi = min(la.max(), lt.max())
    if rhi <= rlo:
        raise NoOverlapError("rate ranges do not overlap")
    bdpsnr = _poly_average(lt, pt, rlo, rhi) - _poly_average(la, pa, rlo, rhi)
    return BDStats(bdbr_percent=float(bdbr), bdpsnr_db=float(bdpsnr))


def saab_usage(counts_by_qp):
    """Percentage of blocks coded with a Saab kernel, per QP and averaged.

    counts_by_qp maps qp -> (n_saab, n_total).
    """
    if not counts_by_qp:
        raise InsufficientDataError("no usage counts")
    per_qp = {}
    for qp, (n_saab, n_total) in counts_by_qp.items():
        if n_total <= 0:
            raise InvalidInputError(f"qp {qp}: no coded blocks")
        per_qp[int(qp)] = 100.0 * n_saab / n_total
    return {"per_qp": per_qp, "average": sum(per_qp.values()) / len(per_qp)}


def timing_ratio(test_seconds, anchor_seconds):
    """Mean-of-ratios runtime percentage of test over anchor, per matching QP."""
    if set(test_seconds) != set(anchor_seconds):
        raise InvalidInputError("timing dictionaries cover different QP sets")
    if not test_seconds:
        raise InsufficientDataError("no timing samples")
    ratios = []
    for qp in test_seconds:
        if anchor_seconds[qp] <= 0:
            raise InvalidInputError(f"qp {qp}: anchor time must be positive")
        ratios.append(test_seconds[qp] / anchor_seconds[qp])
    return 100.0 * sum(ratios) / len(ratios)


def transform_comparison_report(train_blocks, eval_blocks):
    """Energy compaction and decorrelation of DCT vs KLT vs one/two-stage Saab.

    Transforms are learned on train_blocks and evaluated on eval_blocks,
    (n, 8, 8) or (n, 64), through the set's second moment C: transform M's
    coefficients have the moment M C M^T.  Returns per-transform compaction
    curves and decorrelation costs.
    """
    train = np.asarray(train_blocks, dtype=np.float64)
    ev = np.asarray(eval_blocks, dtype=np.float64)
    if ev.shape[1:] not in ((VEC_LEN,), (8, 8)):
        raise InvalidInputError(f"expected (n, 64) vectors or (n, 8, 8) blocks, got shape {ev.shape}")
    moment = covariance(ev.reshape(-1, VEC_LEN))
    matrices = {"dct": DCT_64, "klt": learn_klt(train).matrix, "saab1": learn_saab1(train).matrix,
                "saab2": learn_saab2(train).matrix}
    var = residual_sample_variance(ev)
    report = {"input_variance": var, "sample_count": int(ev.shape[0]), "transforms": {}}
    for name, matrix in matrices.items():
        y_moment = transform_moment(matrix, moment)
        curve = energy_compaction(y_moment, var)
        report["transforms"][name] = {
            "compaction": curve.values,
            "position_order": curve.position_order,
            "decorrelation_cost": decorrelation_cost(y_moment),
        }
    return report


def rd_model_report(records, bank, qp):
    """Closed-form RD comparison of mode-dependent Saab kernels against DCT.

    Groups residual records by intra mode, takes both transforms' coefficient
    variances from each mode's moment about its mean (the exact moment less
    s s^T / n^2 for column sums s), and evaluates the per-position kappa
    model at the given QP.  Mode averages are unweighted; modes with fewer
    than two residuals are skipped.  InvalidInputError for a QP outside
    0..MAX_QP.
    """
    check_qp(qp)
    modes = records.mode
    per_mode = {}
    for mode in np.flatnonzero(np.bincount(modes) >= 2).tolist():
        blocks = records.residual[modes == mode].reshape(-1, VEC_LEN).astype(np.float64)
        s, n = blocks.sum(axis=0), len(blocks)
        moment = covariance(blocks) - np.outer(s, s) / (n * n)
        saab = coeff_stats(bank.kernel_for_mode(mode).matrix, moment)
        per_mode[mode] = compare_transforms(saab, coeff_stats(DCT_64, moment), qp)
    if not per_mode:
        raise InsufficientDataError("no mode had at least 2 residuals")
    return {
        "qp": qp,
        "per_mode": per_mode,
        "avg_delta_kappa": sum(c.delta_kappa for c in per_mode.values()) / len(per_mode),
        "avg_delta_sigma2": sum(c.delta_sigma2 for c in per_mode.values()) / len(per_mode),
    }


def _check_types(obj):
    """Raise InvalidInputError unless every field of the dataclass `obj` is
    of its declared type (a bool is not an int)."""
    for fd in fields(obj):
        value = getattr(obj, fd.name)
        if not isinstance(value, fd.type) or isinstance(value, bool):
            raise InvalidInputError(
                f"{type(obj).__name__}.{fd.name} {value!r} is not of type {fd.type.__name__}"
            )


@dataclass(frozen=True)
class ClipSpec:
    name: str
    path: str
    width: int
    height: int
    frames: int = 0  # 0 = all

    __post_init__ = _check_types


def _json_fields(cls, raw):
    """The keyword arguments of a `cls` from a manifest's JSON object, its
    lists read as tuples; TypeError for anything but an object."""
    if not isinstance(raw, dict):
        raise TypeError(f"{cls.__name__} {raw!r} is not a JSON object")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}


@dataclass(frozen=True)
class ExperimentManifest:
    clips: tuple
    qps: tuple = (22, 27, 32, 37)
    strategies: tuple = ("s1", "s2", "s3")
    bank_path: str = ""
    timing_runs: int = 3

    def __post_init__(self):
        """Raise InvalidInputError for a field not of its declared type, negative clip frames,
        repeated clip names, bad `qps` (check_qps), unknown or repeated strategies, a Saab
        strategy without `bank_path`, or `timing_runs` below 1."""
        _check_types(self)
        if any(clip.frames < 0 for clip in self.clips):
            raise InvalidInputError("manifest clips must not have negative frames")
        if len({clip.name for clip in self.clips}) != len(self.clips):
            raise InvalidInputError(f"clip names must be distinct, got {[clip.name for clip in self.clips]}")
        check_qps(self.qps)
        if len(set(STRATEGIES).intersection(self.strategies)) != len(self.strategies):
            raise InvalidInputError(f"strategies must be distinct names of {STRATEGIES}, got {self.strategies}")
        if set(self.strategies) - {"dct_only"} and not self.bank_path:
            raise InvalidInputError(f"strategies {self.strategies} need a bank_path")
        if self.timing_runs < 1:
            raise InvalidInputError(f"timing_runs must be at least 1, got {self.timing_runs}")

    @classmethod
    def from_json(cls, path):
        """Read a manifest file; a key it omits keeps the field's default.

        Raises InvalidInputError unless the file is a JSON object whose keys
        are fields, whose `clips` are objects whose keys are ClipSpec fields
        (a JSON list is a tuple), and which passes the manifest's checks.
        """
        with open(path) as f:
            try:
                kwargs = _json_fields(cls, json.load(f))
                if "clips" in kwargs:
                    kwargs["clips"] = tuple(ClipSpec(**_json_fields(ClipSpec, c)) for c in kwargs["clips"])
                return cls(**kwargs)
            except (TypeError, ValueError) as e:
                raise InvalidInputError(f"bad manifest {path}: {e!r}") from e


def _timed(fn, runs):
    """Run fn() `runs` (at least 1) times; return (result of first run,
    median seconds)."""
    result = None
    times = []
    for i in range(runs):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        if i == 0:
            result = out
    return result, statistics.median(times)


def run_experiment(manifest, output_dir, verbose=False):
    """Encode every (clip, strategy, qp) cell, decode to verify, and produce
    RD points, Bjontegaard deltas vs the DCT-only anchor, Saab usage, and
    runtime ratios.  Writes CSV tables plus report.json under output_dir;
    timing lives only in timing.csv so the other outputs are deterministic.
    The kernel bank is read from the manifest's `bank_path`.
    """
    strategies = ["dct_only"] + [s for s in manifest.strategies if s != "dct_only"]
    bank = KernelBank.load(manifest.bank_path) if len(strategies) > 1 else None

    os.makedirs(output_dir, exist_ok=True)
    report = {
        "qps": list(manifest.qps),
        "strategies": strategies,
        "bank_digest": bank.digest().hex() if bank is not None else "",
        "clips": {},
    }
    timing_rows = []

    for clip in manifest.clips:
        planes = read_yuv(clip.path, clip.width, clip.height, clip.frames)
        n_pix = sum(p.size for p in planes)
        clip_out = {"strategies": {}}
        enc_times = {}
        dec_times = {}

        for strategy in strategies:
            cfg = StrategyConfig(strategy, bank)
            points = []
            usage_counts = {}
            enc_times[strategy] = {}
            dec_times[strategy] = {}
            for qp in manifest.qps:
                try:
                    # a fresh recon_out list for each timed run
                    (stream, stats, recon), t_enc = _timed(
                        lambda: (*encode_sequence(planes, qp, cfg, recon := []), recon), manifest.timing_runs
                    )
                    (decoded, decoded_stats), t_dec = _timed(
                        lambda: decode_sequence(stream, cfg.bank), manifest.timing_runs
                    )
                except Exception as e:  # noqa: BLE001 - re-raised with context
                    raise ExperimentStageError(clip.name, qp, strategy, e) from e
                counts = summarize(decoded_stats, strategy)
                total_sse = sum(s.sse for s in stats)
                if not np.array_equal(decoded, recon):
                    raise ExperimentStageError(
                        clip.name, qp, strategy, "decoder does not match encoder reconstruction"
                    )
                points.append(
                    RDPoint(
                        qp=qp,
                        rate=counts["total_bits"] / len(planes),
                        psnr=psnr_from_sse(total_sse, n_pix),
                    )
                )
                usage_counts[qp] = (counts["saab_blocks"], counts["blocks"])
                enc_times[strategy][qp] = t_enc
                dec_times[strategy][qp] = t_dec
                if verbose:
                    print(
                        f"{clip.name} {strategy} qp={qp}: "
                        f"{points[-1].rate:.1f} bits/frame, {points[-1].psnr:.3f} dB"
                    )
            entry = {
                "points": points,
                "usage": saab_usage(usage_counts),
            }
            if strategy != "dct_only":
                entry["bd"] = bd_rate(clip_out["strategies"]["dct_only"]["points"], points)
                timing_rows.append(
                    {
                        "clip": clip.name,
                        "strategy": strategy,
                        "encr_percent": timing_ratio(enc_times[strategy], enc_times["dct_only"]),
                        "decr_percent": timing_ratio(dec_times[strategy], dec_times["dct_only"]),
                    }
                )
            clip_out["strategies"][strategy] = entry
        report["clips"][clip.name] = clip_out

    _write_outputs(report, timing_rows, output_dir)
    return report


def format_value(x):
    """A table cell: a float to 6 decimals ("inf" for infinity), else str(x)."""
    return f"{x:.6f}" if isinstance(x, float) else str(x)


def write_csv(path, header, rows):
    """Write a header and rows of cells, each cell through format_value."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([format_value(x) for x in row] for row in rows)


def write_json(path, obj, float_digits=9):
    """Write obj as sorted, 2-space-indented JSON and a newline.  Dict keys
    become strings, arrays lists and RD records objects; a float is written
    as "inf" if infinite, else rounded to `float_digits` decimals (None
    keeps every digit)."""
    with open(path, "w") as f:
        json.dump(_jsonable(obj, float_digits), f, indent=2, sort_keys=True)
        f.write("\n")


def _write_outputs(report, timing_rows, output_dir):
    def path(name):
        return os.path.join(output_dir, name)

    entries = [
        (clip, strategy, cdata["strategies"][strategy])
        for clip, cdata in sorted(report["clips"].items())
        for strategy in report["strategies"]
    ]
    usage_rows = []
    for clip, strategy, e in entries:
        per_qp = e["usage"]["per_qp"]
        usage_rows += [[clip, strategy, qp, per_qp[qp]] for qp in sorted(per_qp)]
        usage_rows.append([clip, strategy, "avg", e["usage"]["average"]])
    write_csv(
        path("rd_points.csv"),
        ["clip", "strategy", "qp", "bits_per_frame", "psnr_db"],
        ([clip, s, p.qp, p.rate, p.psnr] for clip, s, e in entries for p in e["points"]),
    )
    write_csv(
        path("bd_summary.csv"),
        ["clip", "strategy", "bdbr_percent", "bdpsnr_db"],
        ([clip, s, e["bd"].bdbr_percent, e["bd"].bdpsnr_db] for clip, s, e in entries if "bd" in e),
    )
    write_csv(path("usage.csv"), ["clip", "strategy", "qp", "p_saab_percent"], usage_rows)
    write_csv(
        path("timing.csv"),
        ["clip", "strategy", "encr_percent", "decr_percent"],
        ([r["clip"], r["strategy"], r["encr_percent"], r["decr_percent"]] for r in timing_rows),
    )
    write_json(path("report.json"), report)


def _jsonable(obj, float_digits):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, float_digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, float_digits) for v in obj]
    if isinstance(obj, (RDPoint, BDStats)):
        return _jsonable(vars(obj), float_digits)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float) or isinstance(obj, np.floating):
        x = float(obj)
        if math.isinf(x):
            return "inf"
        return x if float_digits is None else round(x, float_digits)
    return obj
