"""The benchmark's two workloads and the correctness checks they count.

Both workloads run the whole flow the CLI verbs run -- residual extraction
and bank training (in set-up), transform analysis, and encode/decode over
the four strategies -- so that every layer is measured on both, but each codes
a different kind of input for the measured time:

  rd_sweep    the paper's experiment: all strategies x QPs {22..37} on an
              8-frame 128x96 clip.  Multi-frame calls, where frame batching
              would apply.
  cif_stills  single-frame 352x288 calls, every strategy at QP 22, one
              still after another.  Nothing to batch across frames, wide
              block rows, and about 6x the level bits per block of QP 37.

The load is a closed loop from one process and one caller: each public call
starts when the previous one has returned.  All inputs derive from the run's
seed through `video.synthesize_luma_clip`; the package is driven only
through its public functions, looked up on their modules at call time so a
traced run can wrap them.
"""

import hashlib
import os
import statistics
import sys
import time
import traceback

import numpy as np

from saabcodec import analysis, codec, metrics, pipeline, video
from saabcodec.kernelio import KernelBank
from spans import Tracer

QPS = (22, 27, 32, 37)
STRATEGIES = codec.STRATEGIES  # dct_only first: the BD anchor
SAAB_STRATEGIES = tuple(s for s in STRATEGIES if s != "dct_only")
# The dct_only anchor codes in about half the time of a Saab strategy, so
# each of its cells is coded twice: its rate is then measured over about as
# much time as each Saab strategy's, and the second pass checks that the
# bytes repeat.
CELL_ORDER = STRATEGIES + ("dct_only",)

# The bank trains on 8 frames x 396 blocks x 4 QPs = 12672 residuals.
TRAIN_FRAME = (176, 144)
N_TRAIN_FRAMES = 8
SAMPLES_PER_KERNEL = 2000
# The experiment's clips are 128x96 with 30 frames.  A 30-frame grid takes
# about 90 s on the machine of baseline.json, more than a run may take, so
# rd_sweep codes 8 frames per call (about 27 s a grid).
RD_CLIP = (128, 96, 8)
CIF = (352, 288)
N_STILLS = 2
STILL_QP = 22
OVERHEAD_CROP = (176, 144)  # part of a still coded to measure tracing overhead
RD_MODEL_QP = 37
ANALYSIS_MODE = 0
MAX_ORTHONORMALITY_ERROR = 1e-9
# Reference passes timed before each timed call, and around the set-up.
CALL_REF_PASSES = 8
SETUP_REF_PASSES = 20
# A fixed constant near a reference pass's time on the machine of
# baseline.json (4.3-7.2 ms there).  Every reported timing is its wall time
# times NOMINAL_REF_S over the run's median pass.
NOMINAL_REF_S = 0.0075


_REF_VECTOR = np.arange(64.0)


def reference_pass_s(passes):
    """Seconds per pass of a fixed loop of interpreter work and 64-element
    numpy operations, the mix the codec runs, that uses no saabcodec code.

    The host this benchmark runs on is shared: identical calls drift by 20-40%
    over tens of seconds as other tenants load it.  Scaling a run's wall times
    by this loop's median time in the same run reports them in seconds at a
    fixed reference speed, which cancels drift between runs.  The loop is part
    of the benchmark's definition and must not change.
    """
    t0 = time.perf_counter()
    for _ in range(passes):
        acc = 0.0
        for i in range(2000):
            acc += float((_REF_VECTOR * i).sum())
    return (time.perf_counter() - t0) / passes


class Timed:
    """Blocks coded and wall seconds spent by one kind of call."""

    def __init__(self):
        self.blocks = 0
        self.seconds = 0.0

    def add(self, blocks, seconds):
        self.blocks += blocks
        self.seconds += seconds


def clip(width, height, frames, seed, purpose):
    """Synthetic luma planes for one purpose of one run seed."""
    return video.synthesize_luma_clip(width, height, frames, seed=[seed, purpose])


class Run:
    """Timings, counters, digests and check outcomes of one benchmark run."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.ref_log = []  # seconds per reference pass, every sample
        self.setup_wall_s = None
        self.extract_s = None
        self.train_s = None
        self.analysis_s = None
        self.encode = {s: Timed() for s in STRATEGIES}
        self.decode = Timed()
        self.payload = [0, 0]  # bits, blocks
        self.usage = {s: {} for s in STRATEGIES}  # qp -> [n_saab, n_total]
        self.points = {}  # grid name -> strategy -> qp -> RDPoint
        self.rd_cost = {}  # (grid, key, qp) -> strategy -> J of the coded cell
        self.bdbr = {}
        self.digests = {}
        self.residual_records = 0
        self.bank_bytes = 0

    def reference(self, passes):
        self.ref_log.append(reference_pass_s(passes))

    def check(self, label, fn):
        """Run one correctness check as an op; an exception counts as failed."""
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"check failed: {label}", file=sys.stderr)
        return ok

    def repeatable(self, label, data):
        """Record the SHA-256 of `data`; a repeat of `label` must match it."""
        digest = hashlib.sha256(data).hexdigest()
        if label in self.digests:
            self.check(f"repeat {label}", lambda: digest == self.digests[label])
        else:
            self.digests[label] = digest


def set_up(run, seed, make_inputs):
    """Synthesize the inputs, then extract-residuals -> train-bank through
    files, as the CLI does.

    Returns (inputs, bank as loaded back from disk, corpus as loaded back).
    """
    corpus_path = os.path.join(run.workdir, "corpus.bin")
    bank_path = os.path.join(run.workdir, "bank.skb")
    run.reference(SETUP_REF_PASSES)
    t0 = time.perf_counter()
    train_clips = training_clips(seed)
    inputs = make_inputs()
    t1 = time.perf_counter()
    records = pipeline.extract_residuals(train_clips, qps=QPS)
    pipeline.save_residual_corpus(corpus_path, records)
    t2 = time.perf_counter()
    corpus = pipeline.load_residual_corpus(corpus_path)
    bank = pipeline.train_kernel_bank(corpus, samples_per_kernel=SAMPLES_PER_KERNEL)
    bank.save(bank_path)
    loaded = KernelBank.load(bank_path)
    t3 = time.perf_counter()
    run.reference(SETUP_REF_PASSES)
    run.setup_wall_s = t3 - t0
    run.extract_s = t2 - t1
    run.train_s = t3 - t2
    run.residual_records = len(records)

    run.check("bank save/load keeps its digest", lambda: loaded.digest() == bank.digest())
    run.check(
        "bank orthonormality",
        lambda: max(k.orthonormality_error() for k in loaded.kernels) <= MAX_ORTHONORMALITY_ERROR,
    )
    for label, path in (("corpus", corpus_path), ("bank", bank_path)):
        with open(path, "rb") as f:
            run.digests[label] = hashlib.sha256(f.read()).hexdigest()
    run.bank_bytes = os.path.getsize(bank_path)
    return inputs, loaded, corpus


def run_analysis(run, corpus, bank):
    """rd-model at QP 37 plus analyze-transforms on the mode-0 residuals
    (first half trains, second half evaluates), once."""
    t0 = time.perf_counter()
    analysis.rd_model_report(corpus, bank, RD_MODEL_QP)
    blocks = [r.residual for r in corpus if r.mode == ANALYSIS_MODE]
    half = len(blocks) // 2
    analysis.transform_comparison_report(blocks[:half], blocks[half:])
    run.analysis_s = time.perf_counter() - t0


def strategy_configs(bank):
    return {s: codec.StrategyConfig(s, None if s == "dct_only" else bank) for s in STRATEGIES}


def mirror_check(run, label, stream, bank, recon):
    """Decode `stream` and compare with the encoder's reconstruction.

    Counts one op; returns (ok, decode seconds or None).
    """
    out = {}

    def decoded_matches():
        t0 = time.perf_counter()
        planes, _ = codec.decode_sequence(stream, bank)
        out["seconds"] = time.perf_counter() - t0
        return len(planes) == len(recon) and all(map(np.array_equal, planes, recon))

    ok = run.check(f"mirror {label}", decoded_matches)
    return ok, out.get("seconds")


def code_cell(run, grid, key, planes, qp, cfg, bank, timed):
    """Encode, decode and check one (planes, strategy, qp) cell.

    `timed` cells count toward the encode/decode rates; all cells count
    toward the RD points, RD costs, usage and bit counts of their grid.
    A cell's RD cost is J = SSE + lambda(qp) * bits of what a
    decoder gets: the checked reconstruction and the whole stream.
    """
    strategy = cfg.strategy
    label = f"{grid}/{key}/{strategy}/qp{qp}"
    recon = []
    if timed:
        run.reference(CALL_REF_PASSES)
    t0 = time.perf_counter()
    stream, stats = codec.encode_sequence(planes, qp, cfg, recon_out=recon)
    seconds = time.perf_counter() - t0
    if timed:
        run.reference(CALL_REF_PASSES)
    ok, decode_s = mirror_check(run, label, stream, bank, recon)
    blocks = sum(s.n_total for s in stats)
    run.repeatable(f"stream {label}", stream)
    if strategy == "s3":
        run.check(
            f"s3 RD dominance {label}",
            lambda: all(b.j_chosen <= b.j_dct for s in stats for b in s.blocks),
        )
    if timed:
        run.encode[strategy].add(blocks, seconds)
        if ok:
            run.decode.add(blocks, decode_s)
    bits = sum(s.total_bits for s in stats)
    run.payload[0] += bits
    run.payload[1] += blocks
    usage = run.usage[strategy].setdefault(qp, [0, 0])
    usage[0] += sum(s.n_saab for s in stats)
    usage[1] += blocks
    points = run.points.setdefault(grid, {}).setdefault(strategy, {})
    if qp not in points:
        sse = sum(s.sse for s in stats)
        pixels = sum(p.size for p in planes)
        points[qp] = analysis.RDPoint(
            qp=qp, rate=bits / len(planes), psnr=analysis.psnr_from_sse(sse, pixels)
        )
    if ok:
        sse = sum(float(np.sum((p.astype(np.int64) - r) ** 2)) for p, r in zip(planes, recon))
        cost = sse + metrics.qp_to_lambda(qp) * 8 * len(stream)
        run.rd_cost.setdefault((grid, key, qp), {})[strategy] = cost


def rd_cost_ratio(run, strategy):
    """Mean over the run's cells of J(strategy) / J(dct_only) on the same
    input and QP: below 1 by the share of RD cost the learned kernels save."""
    cells = [c for c in run.rd_cost.values() if strategy in c and "dct_only" in c]
    return statistics.mean(c[strategy] / c["dct_only"] for c in cells)


def bd_figures(run, grid):
    """Bjontegaard rate of each Saab strategy against the dct_only anchor."""
    pts = run.points[grid]
    anchor = [pts["dct_only"][qp] for qp in QPS]
    for strategy in SAAB_STRATEGIES:
        test = [pts[strategy][qp] for qp in QPS]
        run.bdbr[strategy] = analysis.bd_rate(anchor, test).bdbr_percent
    run.check("s3 BD-rate below the DCT anchor", lambda: run.bdbr["s3"] < 0)


def _loop(seconds, once):
    """Iteration indices of a closed loop that runs at least one iteration
    and starts another only if, at the mean iteration time so far, it ends
    within `seconds`; exactly one iteration when `once`."""
    start = time.perf_counter()
    i = 0
    while True:
        yield i
        i += 1
        elapsed = time.perf_counter() - start
        if once or elapsed * (i + 1) / i > seconds:
            return


def training_clips(seed):
    """Independent single-frame clips: frames of one clip share content, and
    eight unrelated frames keep every kernel group far from starving."""
    width, height = TRAIN_FRAME
    return [clip(width, height, 1, seed, 100 + i) for i in range(N_TRAIN_FRAMES)]


def rd_sweep(run, seed, seconds, once):
    planes, bank, corpus = set_up(run, seed, lambda: clip(*RD_CLIP, seed, 1))
    configs = strategy_configs(bank)
    for _ in _loop(seconds, once):
        # Strategies alternate within each QP so that every strategy's
        # timings spread over the whole run, not one stretch of it.
        for qp in QPS:
            for strategy in CELL_ORDER:
                code_cell(run, "rd", "all", planes, qp, configs[strategy], bank, timed=True)
    run_analysis(run, corpus, bank)
    bd_figures(run, "rd")
    return planes[:2], configs, bank


def cif_stills(run, seed, seconds, once):
    stills, bank, corpus = set_up(
        run, seed, lambda: [clip(*CIF, 1, seed, 10 + i)[0] for i in range(N_STILLS)]
    )
    configs = strategy_configs(bank)

    def code_still(i, timed):
        for strategy in CELL_ORDER:
            code_cell(run, "stills", i, [stills[i]], STILL_QP, configs[strategy], bank, timed)

    iterations = 0
    for i in _loop(seconds, once):
        code_still(i % N_STILLS, timed=True)
        iterations += 1
    run_analysis(run, corpus, bank)
    # Every still counts toward the RD costs, however many the loop reached.
    for i in range(iterations, N_STILLS):
        code_still(i, timed=False)
    crop = [np.ascontiguousarray(stills[0][: OVERHEAD_CROP[1], : OVERHEAD_CROP[0]])]
    return crop, configs, bank


WORKLOADS = {"rd_sweep": rd_sweep, "cif_stills": cif_stills}


def end_to_end_metrics(run, peak_rss_mb):
    """Every timing in seconds at the reference speed: wall seconds times
    NOMINAL_REF_S over the run's median reference pass."""
    scale = NOMINAL_REF_S / statistics.median(run.ref_log)

    def rate(timed):
        return sum(t.blocks for t in timed) / (scale * sum(t.seconds for t in timed))

    return {
        "setup_s": (scale * run.setup_wall_s, "s"),
        "encode_blocks_per_s.dct_only": (rate([run.encode["dct_only"]]), "blocks/s"),
        "encode_blocks_per_s.saab": (rate([run.encode[s] for s in SAAB_STRATEGIES]), "blocks/s"),
        "decode_blocks_per_s": (rate([run.decode]), "blocks/s"),
        "rd_cost_ratio.s3": (rd_cost_ratio(run, "s3"), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def info_metrics(run):
    """Ungated figures for the record: the timed work in plain wall-clock
    units, which drift with host load, each strategy's rate, and the run's
    median reference pass."""
    m = {"wall.setup_s": (run.setup_wall_s, "s")}
    for strategy in STRATEGIES:
        enc = run.encode[strategy]
        m[f"wall.encode_blocks_per_s.{strategy}"] = (enc.blocks / enc.seconds, "blocks/s")
    m["wall.decode_blocks_per_s"] = (run.decode.blocks / run.decode.seconds, "blocks/s")
    m["wall.analysis_s"] = (run.analysis_s, "s")
    m["reference_pass_s"] = (statistics.median(run.ref_log), "s")
    return m


def counted_metrics(run, configs):
    """Per-layer counts measured outside the tracer; they repeat exactly."""
    m = {}
    for strategy, cfg in configs.items():
        candidates = int(cfg.dct_ok.sum() + cfg.saab_ok.sum())
        m[f"codec.candidates_per_block.{strategy}"] = (candidates, "count")
    for strategy in SAAB_STRATEGIES:
        usage = analysis.saab_usage({qp: tuple(c) for qp, c in run.usage[strategy].items()})
        m[f"codec.p_saab_percent.{strategy}"] = (usage["average"], "%")
    m["bitstream.bits_per_block"] = (run.payload[0] / run.payload[1], "bits")
    m["pipeline.residual_records"] = (run.residual_records, "count")
    m["kernelio.bank_bytes"] = (run.bank_bytes, "bytes")
    # The set-up's pipeline phases, in wall-clock units.
    m["pipeline.extract_blocks_per_s"] = (run.residual_records / run.extract_s, "blocks/s")
    m["pipeline.train_s"] = (run.train_s, "s")
    return m


def trace_overhead(run, planes, configs, bank, pairs=5):
    """Traced vs untraced encode time of one s3 cell, in percent.

    The median of the ratios of back-to-back untraced/traced pairs, so slow
    drift of a shared machine cancels; the spans go to a throwaway tracer.
    The streams must be byte-identical.
    """
    cfg = configs["s3"]
    ratios = []
    streams = set()
    for _ in range(pairs):
        t0 = time.perf_counter()
        stream, _ = codec.encode_sequence(planes, STILL_QP, cfg)
        t1 = time.perf_counter()
        streams.add(stream)
        with Tracer().installed():
            t2 = time.perf_counter()
            stream, _ = codec.encode_sequence(planes, STILL_QP, cfg)
            ratios.append((time.perf_counter() - t2) / (t1 - t0))
        streams.add(stream)
    run.check("tracing leaves stream bytes unchanged", lambda: len(streams) == 1)
    return 100.0 * (statistics.median(ratios) - 1.0)
