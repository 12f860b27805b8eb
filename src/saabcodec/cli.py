"""Command-line interface.

One verb per experiment family: ingest/synthesize for content, the
extract-residuals -> train-bank pipeline, encode/decode, and the analysis
verbs (analyze-transforms, rd-model, experiment, bdrate).

Exit codes: 0 success, 2 configuration/usage error, 3 data error
(insufficient, degenerate, corrupt, or non-overlapping inputs), 4 internal.
"""

import argparse
import csv
import dataclasses
import json
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

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_DATA_ERRORS = (
    InsufficientDataError,
    DegenerateInputError,
    BitstreamError,
    NoOverlapError,
    StarvedGroupError,
)


def _parse_clip(spec):
    """Parse `path:WIDTHxHEIGHT[:frames]` into a (path, w, h, frames) tuple."""
    parts = spec.rsplit(":", 2)
    try:
        if len(parts) == 3 and "x" in parts[1]:
            path, dims, frames = parts
            nf = int(frames)
        elif len(parts) >= 2 and "x" in parts[-1]:
            path = ":".join(parts[:-1])
            dims = parts[-1]
            nf = 0
        else:
            raise ValueError
        w, h = (int(v) for v in dims.split("x"))
    except ValueError:
        raise InvalidInputError(f"clip spec {spec!r} is not path:WxH[:frames]")
    return path, w, h, nf


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
    """Every clip is cut to --frames, else to the fewest frames any spec
    names, else kept whole."""
    specs = [_parse_clip(spec) for spec in args.clip]
    frames = args.frames or min((nf for *_, nf in specs if nf), default=0)
    clips = [video.read_yuv(path, w, h, frames) for path, w, h, _ in specs]
    records = pipeline.extract_residuals(clips, qps=tuple(args.qp))
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
    n_saab = sum(s.n_saab for s in stats)
    n_total = sum(s.n_total for s in stats)
    summary = {
        "frames": len(planes),
        "qp": args.qp,
        "strategy": args.strategy,
        "total_bits": sum(s.total_bits for s in stats),
        "psnr_db": analysis._fmt(analysis.psnr_from_sse(sum(s.sse for s in stats), n_pix)),
        "saab_blocks": n_saab,
        "blocks": n_total,
        "p_saab_percent": 100.0 * n_saab / n_total,
    }
    if args.stats:
        with open(args.stats, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_decode(args):
    with open(args.input, "rb") as f:
        data = f.read()
    bank = KernelBank.load(args.bank) if args.bank else None
    planes, dstats = codec.decode_sequence(data, bank)
    video.write_yuv(args.output, planes)
    summary = {
        "frames": len(planes),
        "blocks": dstats.n_total,
        "saab_blocks": dstats.n_saab,
        "flag_bits": dstats.n_flag_bits,
    }
    if args.stats:
        with open(args.stats, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_analyze_transforms(args):
    records = pipeline.load_residual_corpus(args.corpus)
    blocks = records.residual[records.mode == args.mode].astype(np.float64)
    if len(blocks) < 4:
        raise InsufficientDataError(f"only {len(blocks)} residuals with mode {args.mode}")
    n_train = int(len(blocks) * args.train_frac)
    report = analysis.transform_comparison_report(blocks[:n_train], blocks[n_train:])
    import os

    os.makedirs(args.output_dir, exist_ok=True)
    with open(os.path.join(args.output_dir, "compaction.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["i"] + sorted(report["transforms"]))
        for i in range(64):
            w.writerow(
                [i + 1]
                + [f"{report['transforms'][t]['compaction'][i]:.6f}" for t in sorted(report["transforms"])]
            )
    with open(os.path.join(args.output_dir, "decorrelation.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["transform", "cost"])
        for t in sorted(report["transforms"]):
            w.writerow([t, f"{report['transforms'][t]['decorrelation_cost']:.6f}"])
    with open(os.path.join(args.output_dir, "transforms.json"), "w") as f:
        json.dump(analysis._jsonable(report), f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"analyzed {len(blocks)} mode-{args.mode} residuals -> {args.output_dir}")
    return 0


def cmd_rd_model(args):
    records = pipeline.load_residual_corpus(args.corpus)
    bank = KernelBank.load(args.bank)
    report = analysis.rd_model_report(records, bank, args.qp)
    import os

    os.makedirs(args.output_dir, exist_ok=True)
    with open(os.path.join(args.output_dir, "kappa.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mode", "kappa_saab", "kappa_dct", "delta_kappa"])
        for mode, c in sorted(report["per_mode"].items()):
            w.writerow(
                [mode, f"{c.kappa_saab:.6f}", f"{c.kappa_dct:.6f}", f"{c.delta_kappa:.6f}"]
            )
        w.writerow(["avg", "", "", f"{report['avg_delta_kappa']:.6f}"])
    with open(os.path.join(args.output_dir, "sigma.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mode", "delta_sigma2"])
        for mode, c in sorted(report["per_mode"].items()):
            w.writerow([mode, f"{c.delta_sigma2:.6f}"])
        w.writerow(["avg", f"{report['avg_delta_sigma2']:.6f}"])
    print(
        f"qp={args.qp}: avg delta_kappa {report['avg_delta_kappa']:.6f}, "
        f"avg delta_sigma2 {report['avg_delta_sigma2']:.6f} -> {args.output_dir}"
    )
    return 0


def cmd_experiment(args):
    manifest = analysis.ExperimentManifest.from_json(args.manifest)
    if args.timing_runs:
        manifest = dataclasses.replace(manifest, timing_runs=args.timing_runs)
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
    s.add_argument("--clip", action="append", required=True, metavar="PATH:WxH[:FRAMES]")
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
    s.add_argument("--timing-runs", type=int, default=0)
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
    if args.verb == "extract-residuals" and not args.qp:
        args.qp = list(pipeline.DEFAULT_QPS)
    try:
        return args.func(args)
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (InvalidInputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ExperimentStageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except SaabCodecError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
