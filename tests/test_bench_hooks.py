"""The benchmark's span tracer patches package globals by name; a refactor
that drops or renames one breaks traced benchmark runs, so check them here."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_bench_wrap_points_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr in spans.WRAP_POINTS
        if attr not in vars(owner)
    ]
    assert not missing
