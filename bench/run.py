"""Benchmark entry point for saabcodec.

    python3 bench/run.py --workload rd_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With `--trace 0` the last stdout line is a JSON object
with every end-to-end metric; with `--trace 1` the run wraps the package's
public functions (see spans.py), runs exactly one iteration of the
workload's loop, and reports every per-layer metric instead.

A record of the run -- environment, every metric, the ungated wall-clock
figures and the SHA-256 of every bitstream, corpus and bank -- is written to
`.bench_out/<workload>-seed<seed>-trace<0|1>.json`; a traced run also writes
its spans to `.bench_out/<workload>-seed<seed>.spans.jsonl`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("rd_sweep", "cif_stills")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def blas_info():
    """The BLAS library mapped into this process and its live thread count."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "blas" in line.lower() and "/" in line})
    info = {"libraries": [os.path.basename(p) for p in libs], "threads": None, "config": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
        for sym in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_char_p
                info["config"] = fn().decode()
                break
    info["env"] = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return info


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_sha256():
    """Digest of the package sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "saabcodec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(nproc, seed):
    import numpy as np

    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if not (ROOT / "src" / "saabcodec" / "__init__.py").is_file():
        print(f"bench: no saabcodec package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import saabcodec

    if ROOT / "src" not in Path(saabcodec.__file__).resolve().parents:
        print(f"bench: imported saabcodec from {saabcodec.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    run_workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        run = workloads.Run(workdir)
        if args.trace:
            tracer = spans.Tracer()
            with tracer.installed():
                planes, configs, bank = run_workload(run, args.seed, args.seconds, once=True)
            overhead = workloads.trace_overhead(run, planes, configs, bank)
            metrics = tracer.layer_metrics()
            metrics.update(workloads.counted_metrics(run, configs))
            metrics["process.cpu_per_wall"] = (
                (time.process_time() - cpu0) / (time.perf_counter() - wall0), "ratio")
            metrics["trace.overhead_percent"] = (overhead, "%")
            tracer.write_jsonl(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
        else:
            run_workload(run, args.seed, args.seconds, once=False)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = workloads.end_to_end_metrics(run, peak_rss_mb)

    info = workloads.info_metrics(run)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(nproc, args.seed),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
        "bdbr_percent": run.bdbr,
        "sha256": run.digests,
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for name, (value, unit) in info.items():
        print(f"{'(info) ' + name:48s} {value:14.6g} {unit}")
    if run.bdbr:
        print("BDBR vs dct_only: " + ", ".join(f"{s} {v:.3f}%" for s, v in run.bdbr.items()))
    print(f"ops attempted {run.attempted}, failed {run.failed}; record: {record_path}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
