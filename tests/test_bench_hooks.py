"""The benchmark's span tracer patches package globals by name, and its
workloads read fields of coded blocks and residual corpora by attribute; a
refactor that drops or renames either breaks benchmark runs, so check them
here."""

import importlib.util
from pathlib import Path

import numpy as np

from saabcodec import codec, pipeline
from saabcodec.kernelio import KernelBank

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_wrap_points_resolve():
    spans = _load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr in spans.WRAP_POINTS
        if attr not in vars(owner)
    ]
    assert not missing


def test_bench_spans_record_calls(tiny_bank, tiny_clip):
    # a wrap point that resolves but is no longer called would read 0
    tracer = _load_spans().Tracer()
    with tracer.installed():
        stream, _ = codec.encode_sequence(tiny_clip[:2], 32, codec.StrategyConfig("s3", tiny_bank))
        codec.decode_sequence(stream, tiny_bank)
    calls = {name: t.size for name, t in tracer.self_times().items()}
    wanted = ("codec.encode_levels", "codec.level_bit_cost", "codec.quantize", "codec.decode_levels")
    assert all(calls[name] > 0 for name in wanted), calls
    # the bench labels decode_levels per block: one call per coded block
    assert calls["codec.decode_levels"] == 2 * (64 // 8) * (48 // 8), calls


def test_bench_spans_record_training(tmp_path, tiny_records):
    # the bench's set-up trains, saves and loads a bank; the 24 kernels share
    # one stacked solve, so learning and the eigensolve are one call each
    tracer = _load_spans().Tracer()
    path = str(tmp_path / "bank.skb")
    with tracer.installed():
        pipeline.train_kernel_bank(tiny_records, samples_per_kernel=300, seed=1).save(path)
        KernelBank.load(path)
    calls = {name: t.size for name, t in tracer.self_times().items()}
    assert calls["transforms.learn_saab1"] == 1 and calls["linalg.eig_symmetric"] == 1, calls
    assert calls["kernelio.KernelBank.to_bytes"] > 0 and calls["kernelio.KernelBank.from_bytes"] > 0, calls


def test_bench_reads_of_blocks_and_corpus(tmp_path, tiny_bank, tiny_clip):
    # the attribute reads bench/workloads.py makes of coded blocks and corpora
    cfg = codec.StrategyConfig("s3", tiny_bank)
    _, stats = codec.encode_sequence(tiny_clip[:1], 32, cfg)
    assert all(b.j_chosen <= b.j_dct for s in stats for b in s.blocks)
    records = pipeline.extract_residuals([tiny_clip], qps=(37,))
    path = str(tmp_path / "corpus.bin")
    pipeline.save_residual_corpus(path, records)
    corpus = pipeline.load_residual_corpus(path)
    assert len(corpus) == len(records) == 3 * (64 // 8) * (48 // 8)
    blocks = [r.residual for r in corpus if r.mode == 0]
    assert blocks and all(b.shape == (8, 8) for b in blocks)
    assert np.array_equal(blocks, corpus.residual[corpus.mode == 0])


def test_bench_reads_of_coded_cells(tiny_bank, tiny_clip):
    # bench/workloads.mirror_check unpacks decode_sequence's 2-tuple, and
    # code_cell sums n_total, total_bits, n_saab and sse over the encoder's
    # FrameStats
    planes_in = tiny_clip[:2]
    recon = []
    stream, stats = codec.encode_sequence(planes_in, 32, codec.StrategyConfig("s3", tiny_bank), recon)
    out = codec.decode_sequence(stream, tiny_bank)
    assert isinstance(out, tuple) and len(out) == 2
    planes, _ = out
    assert isinstance(planes, list) and all(map(np.array_equal, planes, recon))
    assert [s.n_total for s in stats] == [(64 // 8) * (48 // 8)] * 2
    assert (sum(s.total_bits for s in stats) + 7) // 8 == len(stream) - codec._HEADER.size
    n_saab = [s.n_saab for s in stats]
    assert all(isinstance(n, int) and 0 < n <= s.n_total for n, s in zip(n_saab, stats))
    sse = [np.sum((p.astype(np.int64) - r) ** 2) for p, r in zip(planes_in, recon)]
    assert [s.sse for s in stats] == sse and all(isinstance(s.sse, float) for s in stats)


def test_bench_reads_of_strategy_configs(tiny_bank):
    # bench/workloads.counted_metrics counts each strategy's candidates per block
    configs = {s: codec.StrategyConfig(s, tiny_bank) for s in codec.STRATEGIES}
    counts = {s: int(cfg.dct_ok.sum() + cfg.saab_ok.sum()) for s, cfg in configs.items()}
    assert counts == {"dct_only": 35, "s1": 35, "s2": 60, "s3": 70}
    assert all(cfg.strategy == s for s, cfg in configs.items())
