"""The traced benchmark wraps program functions by name from outside
(`perfbench/spans.py`), so a rename in `src/` would silently drop a span.
This keeps every wrapped name resolving without running the benchmark."""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load_spans()
    restore, missing = spans.install(spans.Recorder("t"))
    try:
        assert missing == set()
    finally:
        restore()
