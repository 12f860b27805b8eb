"""The same bank, KLT, streams, decoded planes and analysis reports under
every OpenBLAS kernel and under numpy's baseline SIMD dispatch.

numpy's OpenBLAS, when built with DYNAMIC_ARCH, picks its kernels for the
CPU at load time, and OPENBLAS_CORETYPE overrides the pick.  numpy's own
loops dispatch to the best SIMD level the CPU has, and
NPY_DISABLE_CPU_FEATURES turns levels off.  Each check runs in a child
process with the variable set in that child's environment only: it trains
the tiny bank, learns a KLT on the same residuals, encodes the tiny clip
for every golden stream, decodes the pinned golden streams and writes the
`analyze-transforms` and `rd-model` outputs of the CLI goldens, and the
results must equal this process's, whose kernels are the library's
default, and the goldens.  Each golden encode is run again with the
stacked reference search (tests/reference_search.py) in place of the
codec's: its blocks' levels, bits and J must be the same, and so must the
coefficients, levels, bits and J of the codec's search, run beside it on
each batch.  Neither the J estimates nor the coefficients are in any
stream, so an operand layout that rounds differently shows only here.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import saabcodec
from saabcodec import codec, pipeline, transforms
from test_golden import BANK_DIGEST, CLI_OUTPUTS, DECODED_PLANES, STREAMS

# the outputs of `analyze-transforms` and `rd-model` among the CLI goldens
_ANALYSIS_OUTPUTS = ("compaction.csv", "decorrelation.csv", "transforms.json", "kappa.csv", "sigma.csv")

# argv: the saved tiny bank, the saved tiny corpus, an output directory, then
# the stream files; prints the child's results as JSON, or {"skip": reason}
# when numpy rejects a feature name it was asked to disable
_CHILD = """
import contextlib, hashlib, io, json, os, sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import numpy as np
rejected = [str(w.message) for w in caught if "NPY_DISABLE_CPU_FEATURES" in str(w.message)]
if rejected:
    print(json.dumps({"skip": rejected[0]}))
    sys.exit()
from conftest import make_tiny_bank, make_tiny_clip, make_tiny_records
from saabcodec import cli, codec, kernelio, transforms
import reference_search
from test_golden import STREAMS

try:
    from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
    dispatch = sorted({t["current"] for t in opt_func_info("add", "float32")["add"].values()})
except ImportError:
    dispatch = None
records = make_tiny_records()
bank_path, corpus, out = sys.argv[1:4]
bank = kernelio.KernelBank.load(bank_path)
clip = make_tiny_clip()
def table_digest(stats):
    fields = ("levels", "bits", "j_chosen", "j_dct")
    data = b"".join(np.ascontiguousarray(s.blocks[f]).tobytes() for f in fields for s in stats)
    return hashlib.sha256(data).hexdigest()
streams, tables, searches = {}, {}, {}
search = codec._candidate_costs
for strategy, qp in sorted(STREAMS):
    cfg, key = codec.StrategyConfig(strategy, bank), f"{strategy}-{qp}"
    stream, stats = codec.encode_sequence(clip, qp, cfg)
    streams[key] = hashlib.sha256(stream).hexdigest()
    # the same encode with the stacked reference in place of the codec's search,
    # which runs on every batch too: the names of the outputs that differ
    differ = searches[key] = []
    def reference(res, q, lam, runs, head_bits):
        want, names = reference_search.differences(search, res, q, lam, cfg)
        differ.extend(names)
        return want
    codec._candidate_costs = reference
    try:
        _, ref_stats = codec.encode_sequence(clip, qp, cfg)
    finally:
        codec._candidate_costs = search
    tables[key] = [table_digest(stats), table_digest(ref_stats)]
planes = {}
for path in sys.argv[4:]:
    with open(path, "rb") as f:
        decoded, _ = codec.decode_sequence(f.read(), bank)
    planes[path] = hashlib.sha256(np.ascontiguousarray(decoded, dtype=np.uint8).tobytes()).hexdigest()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze-transforms", "--corpus", corpus, "--mode", "0", "--output-dir", out]) == 0
    assert cli.main(["rd-model", "--corpus", corpus, "--bank", bank_path, "--qp", "37", "--output-dir", out]) == 0
analysis = {}
for name in sorted(os.listdir(out)):
    with open(os.path.join(out, name), "rb") as f:
        analysis[name] = hashlib.sha256(f.read()).hexdigest()
print(json.dumps({
    "bank": make_tiny_bank(records).digest().hex(),
    "klt": transforms.learn_klt(records["residual"]).matrix.tobytes().hex(),
    "streams": streams,
    "tables": tables,
    "searches": searches,
    "planes": planes,
    "analysis": analysis,
    "dispatch": dispatch,
}))
"""
# numpy's dispatch levels above the X86_V2 baseline (numpy 2.4's names)
_ABOVE_BASELINE = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def _skip_reason():
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OpenBLAS core types are x86-64 names; this is {platform.machine()}"
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return "numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE selects nothing"
    return None


_SKIP_REASON = _skip_reason()


def _has_avx2():
    try:
        with open("/proc/cpuinfo") as f:
            return " avx2" in f.read()
    except OSError:
        return False


def _check_child(env_vars, tmp_path, tiny_records, tiny_bank, tiny_clip):
    """Encode the golden streams here, then run the child with `env_vars`
    added to its environment and check its results; returns them."""
    bank_path, corpus, out = tmp_path / "bank.skb", tmp_path / "corpus.bin", tmp_path / "analysis"
    tiny_bank.save(str(bank_path))
    pipeline.save_residual_corpus(str(corpus), tiny_records)
    out.mkdir()
    paths = {}
    for strategy, qp in sorted(STREAMS):
        stream, _ = codec.encode_sequence(tiny_clip, qp, codec.StrategyConfig(strategy, tiny_bank))
        assert hashlib.sha256(stream).hexdigest() == STREAMS[(strategy, qp)]
        paths[(strategy, qp)] = str(tmp_path / f"{strategy}_{qp}.bin")
        with open(paths[(strategy, qp)], "wb") as f:
            f.write(stream)
    # the child imports saabcodec from where this process does, and conftest from here
    path = [os.path.dirname(os.path.dirname(saabcodec.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(path + [env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(bank_path), str(corpus), str(out), *paths.values()],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    if "skip" in got:
        pytest.skip(f"numpy rejects {env_vars}: {got['skip']}")
    assert got["bank"] == BANK_DIGEST
    assert bytes.fromhex(got["klt"]) == transforms.learn_klt(tiny_records["residual"]).matrix.tobytes()
    for key, p in paths.items():
        assert got["planes"][p] == DECODED_PLANES[key], key
    for (strategy, qp), digest in STREAMS.items():
        assert got["streams"][f"{strategy}-{qp}"] == digest, (strategy, qp)
        # the stacked reference search's blocks and outputs, batch by batch
        table, reference = got["tables"][f"{strategy}-{qp}"]
        assert table == reference and got["searches"][f"{strategy}-{qp}"] == [], (strategy, qp)
    assert got["analysis"] == {name: CLI_OUTPUTS[name] for name in _ANALYSIS_OUTPUTS}
    return got


@pytest.mark.skipif(_SKIP_REASON is not None, reason=str(_SKIP_REASON))
@pytest.mark.parametrize("core", ["Prescott", "Haswell"])
def test_same_results_under_each_blas_kernel(core, tmp_path, tiny_records, tiny_bank, tiny_clip):
    if core == "Haswell" and not _has_avx2():
        pytest.skip("the Haswell kernels need AVX2, which this CPU lacks")
    _check_child({"OPENBLAS_CORETYPE": core}, tmp_path, tiny_records, tiny_bank, tiny_clip)


def test_same_results_under_numpy_baseline_simd(tmp_path, tiny_records, tiny_bank, tiny_clip):
    # the RD search is float32 and not normative, so a SIMD loop that rounds
    # differently could move a choice at a quantizer boundary
    got = _check_child(
        {"NPY_DISABLE_CPU_FEATURES": _ABOVE_BASELINE}, tmp_path, tiny_records, tiny_bank, tiny_clip
    )
    assert got["dispatch"] and all(t.startswith("baseline") for t in got["dispatch"]), got["dispatch"]
