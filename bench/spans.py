"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces selected package functions with wrappers that record one
span per call: (name, start, end, parent span index).  Wrappers are installed
only inside `Tracer.installed()` and the original objects are put back on
exit, so an untraced run executes the package's code unchanged.  Spans stay
in memory and are written once, by `write_jsonl`, when the run ends.

Each function is patched under the name its caller looks up (for example
`codec.predict_all_modes`, the binding `encode_block` uses), because the
package imports functions into the calling module's namespace.
"""

import contextlib
import functools
import json
import time

import numpy as np

from saabcodec import analysis, codec, pipeline, transforms, video
from saabcodec.kernelio import KernelBank

# (span name, object whose attribute is patched, attribute name).  A span
# name may appear twice when two modules look the same function up.
WRAP_POINTS = (
    ("video.synthesize_luma_clip", video, "synthesize_luma_clip"),
    ("intra.build_references", codec, "build_references"),
    ("intra.predict_all_modes", codec, "predict_all_modes"),
    ("intra.predict_block", codec, "predict_block"),
    ("codec.encode_sequence", codec, "encode_sequence"),
    ("codec.encode_sequence", pipeline, "encode_sequence"),
    ("codec.encode_block", codec, "encode_block"),
    ("codec.quantize", codec, "quantize"),
    ("codec.level_bit_cost", codec, "level_bit_cost"),
    ("codec.encode_levels", codec, "encode_levels"),
    ("codec.decode_sequence", codec, "decode_sequence"),
    ("codec.decode_levels", codec, "decode_levels"),
    ("transforms.learn_saab1", pipeline, "learn_saab1"),
    ("transforms.learn_saab1", analysis, "learn_saab1"),
    ("transforms.learn_klt", analysis, "learn_klt"),
    ("transforms.learn_saab2", analysis, "learn_saab2"),
    ("transforms.dct_forward", analysis, "dct_forward"),
    ("transforms.saab_forward", analysis, "saab_forward"),
    ("transforms.saab2_forward", analysis, "saab2_forward"),
    ("linalg.eig_symmetric", transforms, "eig_symmetric"),
    ("linalg.covariance", transforms, "covariance"),
    ("pipeline.extract_residuals", pipeline, "extract_residuals"),
    ("pipeline.save_residual_corpus", pipeline, "save_residual_corpus"),
    ("pipeline.load_residual_corpus", pipeline, "load_residual_corpus"),
    ("pipeline.train_kernel_bank", pipeline, "train_kernel_bank"),
    ("kernelio.KernelBank.to_bytes", KernelBank, "to_bytes"),
    ("kernelio.KernelBank.from_bytes", KernelBank, "from_bytes"),
    ("metrics.coeff_stats", analysis, "coeff_stats"),
    ("metrics.compare_transforms", analysis, "compare_transforms"),
    ("analysis.rd_model_report", analysis, "rd_model_report"),
    ("analysis.transform_comparison_report", analysis, "transform_comparison_report"),
    ("analysis.bd_rate", analysis, "bd_rate"),
)

# Functions called once or more per 8x8 block; they also get per-call
# self-time percentiles.
PER_BLOCK = frozenset(
    {
        "intra.build_references",
        "intra.predict_all_modes",
        "intra.predict_block",
        "codec.encode_block",
        "codec.quantize",
        "codec.level_bit_cost",
        "codec.encode_levels",
        "codec.decode_levels",
        "transforms.dct_forward",
        "transforms.saab_forward",
        "transforms.saab2_forward",
    }
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in WRAP_POINTS))


class Tracer:
    """Records nested spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block."""
        originals = []
        try:
            for name, owner, attr in WRAP_POINTS:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                originals.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)

    def self_times(self):
        """Per-function arrays of per-call self time in seconds.

        Self time is a span's duration minus the durations of its direct
        child spans; children of one call never overlap, as the package is
        single-threaded.
        """
        child = np.zeros(len(self.spans))
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_fn = {name: [] for name in SPAN_NAMES}
        for i, (name, start, end, _) in enumerate(self.spans):
            per_fn[name].append(end - start - child[i])
        return {name: np.asarray(v) for name, v in per_fn.items()}

    def layer_metrics(self):
        """calls and self_s for every function, plus us_p50/us_p90 of the
        per-call self time for the per-block functions."""
        out = {}
        for name, self_s in self.self_times().items():
            out[f"{name}.calls"] = (int(self_s.size), "count")
            out[f"{name}.self_s"] = (float(self_s.sum()), "s")
            if name in PER_BLOCK:
                p50, p90 = np.percentile(self_s, [50, 90]) * 1e6 if self_s.size else (0.0, 0.0)
                out[f"{name}.us_p50"] = (float(p50), "us")
                out[f"{name}.us_p90"] = (float(p90), "us")
        return out

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span))
                f.write("\n")
