"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py

The end-to-end tests run every workload once untraced and once traced with
a one-second budget, so the file takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from saabcodec import codec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(record_path.read_text())


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def both_runs(request):
    return run_bench(request.param, 0), run_bench(request.param, 1)


def test_printed_metrics_match_benchmark_json(both_runs):
    for (result, _), section in zip(both_runs, ("end_to_end", "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracing_leaves_digests_unchanged(both_runs):
    (_, plain), (_, traced) = both_runs
    common = set(plain["sha256"]) & set(traced["sha256"])
    assert any(label.startswith("stream ") for label in common)
    assert {k: plain["sha256"][k] for k in common} == {k: traced["sha256"][k] for k in common}


def test_seed_changes_generated_inputs():
    a = workloads.clip(64, 32, 2, 1, 0)
    assert all(map(np.array_equal, a, workloads.clip(64, 32, 2, 1, 0)))
    assert not np.array_equal(a[0], workloads.clip(64, 32, 2, 2, 0)[0])
    assert not np.array_equal(a[0], workloads.clip(64, 32, 2, 1, 1)[0])


def _flip(stream, bit):
    data = bytearray(stream)
    data[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(data)


# Header byte 5 is the strategy code; payload bit 6 is block 0's coded-block
# flag, after its 6-bit mode.
@pytest.mark.parametrize("bit", [5 * 8 + 7, 30 * 8 + 6])
def test_flipped_bit_is_a_failed_op(tmp_path, bit):
    planes = workloads.clip(16, 16, 1, 0, 0)
    recon = []
    stream, _ = codec.encode_sequence(planes, 22, codec.StrategyConfig("dct_only"), recon_out=recon)
    run = workloads.Run(str(tmp_path))
    assert workloads.mirror_check(run, "intact", stream, None, recon)[0]
    ok, _ = workloads.mirror_check(run, "flipped", _flip(stream, bit), None, recon)
    assert not ok
    assert (run.attempted, run.failed) == (2, 1)


def test_tracer_restores_functions_and_accounts_self_time():
    original = codec.encode_block
    planes = workloads.clip(16, 16, 1, 0, 0)
    tracer = spans.Tracer()
    with tracer.installed():
        assert codec.encode_block is not original
        codec.encode_sequence(planes, 37, codec.StrategyConfig("dct_only"))
    assert codec.encode_block is original
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["codec.encode_sequence"]
    total_self = sum(v.sum() for v in tracer.self_times().values())
    assert total_self == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9)
    metrics = tracer.layer_metrics()
    assert metrics["codec.encode_block.calls"] == (4, "count")
    assert metrics["intra.predict_block.calls"] == (0, "count")
