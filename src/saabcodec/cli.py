"""Command-line interface.

One verb per experiment family: ingest/synthesize for content, the
extract-residuals -> train-bank pipeline, encode/decode, and the analysis
verbs (analyze-transforms, rd-model, experiment, bdrate).

Exit codes: 0 success, 2 configuration/usage error, 3 data error
(insufficient, degenerate, corrupt, or non-overlapping inputs), 4 internal.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import analysis, codec, pipeline, video
from .errors import (
    BitstreamError,
    DegenerateInputError,
    ExperimentStageError,
    InsufficientDataError,
    InvalidInputError,
    NoOverlapError,
    SaabCodecError,
    StarvedGroupError,
)
from .kernelio import KernelBank
from .modes import N_MODES

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_DATA_ERRORS = (
    InsufficientDataError,
    DegenerateInputError,
    BitstreamError,
    NoOverlapError,
    StarvedGroupError,
    ExperimentStageError,
)


def _parse_clip(spec):
    """Parse `path:WIDTHxHEIGHT` into a (path, w, h) tuple."""
    path, _, dims = spec.rpartition(":")
    try:
        w, h = (int(v) for v in dims.split("x"))
        if not path:
            raise ValueError
    except ValueError:
        raise InvalidInputError(f"clip spec {spec!r} is not path:WxH")
    return path, w, h


def cmd_ingest(args):
    planes = video.read_yuv(args.input, args.width, args.height, args.frames)
    h, w = planes[0].shape
    if args.output:
        video.write_yuv(args.output, planes)
    info = {
        "frames": len(planes),
        "width": int(w),
        "height": int(h),
        "mean_luma": round(float(np.mean([p.mean() for p in planes])), 4),
    }
    print(json.dumps(info, sort_keys=True))
    return 0


def cmd_synthesize(args):
    planes = video.synthesize_luma_clip(args.width, args.height, args.frames, seed=args.seed)
    video.write_yuv(args.output, planes)
    print(f"wrote {len(planes)} frames to {args.output}")
    return 0


def cmd_extract_residuals(args):
    specs = [_parse_clip(spec) for spec in args.clip]
    clips = [video.read_yuv(path, w, h, args.frames) for path, w, h in specs]
    records = pipeline.extract_residuals(clips, qps=tuple(args.qp or pipeline.DEFAULT_QPS))
    pipeline.save_residual_corpus(args.output, records)
    print(f"collected {len(records)} residuals from {len(clips)} clip(s) -> {args.output}")
    return 0


def cmd_train_bank(args):
    records = pipeline.load_residual_corpus(args.corpus)
    bank = pipeline.train_kernel_bank(
        records,
        samples_per_kernel=args.samples_per_kernel,
        seed=args.seed,
        decimal_digits=args.digits,
    )
    bank.save(args.output)
    print(f"trained {len(bank.kernels)} kernels (digest {bank.digest().hex()}) -> {args.output}")
    return 0


def cmd_encode(args):
    planes = video.read_yuv(args.input, args.width, args.height, args.frames)
    bank = KernelBank.load(args.bank) if args.bank else None
    cfg = codec.StrategyConfig(args.strategy, bank)
    stream, stats = codec.encode_sequence(planes, args.qp, cfg)
    with open(args.output, "wb") as f:
        f.write(stream)
    n_pix = sum(p.size for p in planes)
    counts = codec.summarize(stats, args.strategy)
    summary = {
        "frames": len(planes),
        "qp": args.qp,
        "strategy": args.strategy,
        "total_bits": counts["total_bits"],
        "psnr_db": analysis.format_value(analysis.psnr_from_sse(sum(s.sse for s in stats), n_pix)),
        "saab_blocks": counts["saab_blocks"],
        "blocks": counts["blocks"],
        "p_saab_percent": 100.0 * counts["saab_blocks"] / counts["blocks"],
    }
    if args.stats:
        analysis.write_json(args.stats, summary, float_digits=None)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_decode(args):
    with open(args.input, "rb") as f:
        data = f.read()
    bank = KernelBank.load(args.bank) if args.bank else None
    planes, stats = codec.decode_sequence(data, bank)
    video.write_yuv(args.output, planes)
    counts = codec.summarize(stats, codec.stream_info(data)["strategy"])
    summary = {
        "frames": len(planes),
        "blocks": counts["blocks"],
        "saab_blocks": counts["saab_blocks"],
        "flag_bits": counts["flag_bits"],
    }
    if args.stats:
        analysis.write_json(args.stats, summary, float_digits=None)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_analyze_transforms(args):
    records = pipeline.load_residual_corpus(args.corpus)
    if not 0.0 < args.train_frac < 1.0:
        raise InvalidInputError(f"--train-frac must be between 0 and 1, got {args.train_frac}")
    if not 0 <= args.mode < N_MODES:
        raise InvalidInputError(f"--mode must be between 0 and {N_MODES - 1}, got {args.mode}")
    blocks = records.residual[records.mode == args.mode].astype(np.float64)
    if len(blocks) < 4:
        raise InsufficientDataError(f"only {len(blocks)} residuals with mode {args.mode}")
    n_train = int(len(blocks) * args.train_frac)
    report = analysis.transform_comparison_report(blocks[:n_train], blocks[n_train:])
    transforms = sorted(report["transforms"].items())
    os.makedirs(args.output_dir, exist_ok=True)
    analysis.write_csv(
        os.path.join(args.output_dir, "compaction.csv"),
        ["i"] + [name for name, _ in transforms],
        ([i + 1] + [t["compaction"][i] for _, t in transforms] for i in range(64)),
    )
    analysis.write_csv(
        os.path.join(args.output_dir, "decorrelation.csv"),
        ["transform", "cost"],
        ([name, t["decorrelation_cost"]] for name, t in transforms),
    )
    analysis.write_json(os.path.join(args.output_dir, "transforms.json"), report)
    print(f"analyzed {len(blocks)} mode-{args.mode} residuals -> {args.output_dir}")
    return 0


def cmd_rd_model(args):
    records = pipeline.load_residual_corpus(args.corpus)
    bank = KernelBank.load(args.bank)
    report = analysis.rd_model_report(records, bank, args.qp)
    per_mode = sorted(report["per_mode"].items())
    os.makedirs(args.output_dir, exist_ok=True)
    analysis.write_csv(
        os.path.join(args.output_dir, "kappa.csv"),
        ["mode", "kappa_saab", "kappa_dct", "delta_kappa"],
        [[m, c.kappa_saab, c.kappa_dct, c.delta_kappa] for m, c in per_mode]
        + [["avg", "", "", report["avg_delta_kappa"]]],
    )
    analysis.write_csv(
        os.path.join(args.output_dir, "sigma.csv"),
        ["mode", "delta_sigma2"],
        [[m, c.delta_sigma2] for m, c in per_mode] + [["avg", report["avg_delta_sigma2"]]],
    )
    print(
        f"qp={args.qp}: avg delta_kappa {report['avg_delta_kappa']:.6f}, "
        f"avg delta_sigma2 {report['avg_delta_sigma2']:.6f} -> {args.output_dir}"
    )
    return 0


def cmd_experiment(args):
    manifest = analysis.ExperimentManifest.from_json(args.manifest)
    analysis.run_experiment(manifest, args.output_dir, verbose=not args.quiet)
    print(f"experiment complete -> {args.output_dir}")
    return 0


def _read_rd_csv(path):
    """qp,rate,psnr rows; InvalidInputError for a missing column or a non-number."""
    with open(path, newline="") as f:
        try:
            return [
                analysis.RDPoint(
                    qp=int(row["qp"]), rate=float(row["rate"]), psnr=float(row["psnr"])
                )
                for row in csv.DictReader(f)
            ]
        except (KeyError, TypeError, ValueError, csv.Error) as e:
            raise InvalidInputError(f"bad RD table {path}: {e!r}") from e


def cmd_bdrate(args):
    bd = analysis.bd_rate(_read_rd_csv(args.anchor), _read_rd_csv(args.test))
    print(json.dumps({"bdbr_percent": round(bd.bdbr_percent, 6), "bdpsnr_db": round(bd.bdpsnr_db, 6)}))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="saabcodec", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("ingest", help="validate a raw 4:2:0 file and crop to the 8x8 grid")
    s.add_argument("--input", required=True)
    s.add_argument("--width", type=int, required=True)
    s.add_argument("--height", type=int, required=True)
    s.add_argument("--frames", type=int, default=0)
    s.add_argument("--output")
    s.set_defaults(func=cmd_ingest)

    s = sub.add_parser("synthesize", help="generate a deterministic synthetic test clip")
    s.add_argument("--width", type=int, required=True)
    s.add_argument("--height", type=int, required=True)
    s.add_argument("--frames", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--output", required=True)
    s.set_defaults(func=cmd_synthesize)

    s = sub.add_parser("extract-residuals", help="collect mode-labelled residuals")
    s.add_argument("--clip", action="append", required=True, metavar="PATH:WxH")
    s.add_argument("--qp", type=int, action="append", default=None)
    s.add_argument("--frames", type=int, default=0)
    s.add_argument("--output", required=True)
    s.set_defaults(func=cmd_extract_residuals)

    s = sub.add_parser("train-bank", help="learn the 24-kernel bank from a corpus")
    s.add_argument("--corpus", required=True)
    s.add_argument("--output", required=True)
    s.add_argument("--samples-per-kernel", type=int, default=pipeline.DEFAULT_SAMPLES_PER_KERNEL)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--digits", type=int, default=None)
    s.set_defaults(func=cmd_train_bank)

    s = sub.add_parser("encode", help="encode a clip to a bitstream")
    s.add_argument("--input", required=True)
    s.add_argument("--width", type=int, required=True)
    s.add_argument("--height", type=int, required=True)
    s.add_argument("--frames", type=int, default=0)
    s.add_argument("--qp", type=int, required=True)
    s.add_argument("--strategy", choices=codec.STRATEGIES, default="dct_only")
    s.add_argument("--bank")
    s.add_argument("--output", required=True)
    s.add_argument("--stats")
    s.set_defaults(func=cmd_encode)

    s = sub.add_parser("decode", help="decode a bitstream back to raw video")
    s.add_argument("--input", required=True)
    s.add_argument("--bank")
    s.add_argument("--output", required=True)
    s.add_argument("--stats")
    s.set_defaults(func=cmd_decode)

    s = sub.add_parser("analyze-transforms", help="compaction/decorrelation comparison")
    s.add_argument("--corpus", required=True)
    s.add_argument("--mode", type=int, default=0)
    s.add_argument("--train-frac", type=float, default=0.8)
    s.add_argument("--output-dir", required=True)
    s.set_defaults(func=cmd_analyze_transforms)

    s = sub.add_parser("rd-model", help="closed-form kappa comparison per mode")
    s.add_argument("--corpus", required=True)
    s.add_argument("--bank", required=True)
    s.add_argument("--qp", type=int, required=True)
    s.add_argument("--output-dir", required=True)
    s.set_defaults(func=cmd_rd_model)

    s = sub.add_parser("experiment", help="full RD experiment from a manifest")
    s.add_argument("--manifest", required=True)
    s.add_argument("--output-dir", required=True)
    s.add_argument("--quiet", action="store_true")
    s.set_defaults(func=cmd_experiment)

    s = sub.add_parser("bdrate", help="Bjontegaard deltas from two qp,rate,psnr CSVs")
    s.add_argument("--anchor", required=True)
    s.add_argument("--test", required=True)
    s.set_defaults(func=cmd_bdrate)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (InvalidInputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SaabCodecError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
