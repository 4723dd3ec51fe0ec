"""The traced benchmark wraps program functions by name from outside
(`perfbench/spans.py`), so a rename in `src/` would silently drop a span.
This keeps every wrapped name resolving, and every counter hook running on
the arguments the program passes, without running the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

from attendout import cli, trainer
from attendout.config import parse_config_text

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

TINY = """
[run]
method = {method}
seed = 1
epochs = 1

[data]
task = majority_token
n = 60
seq_len = 6
vocab = 6

[model]
layers = 2
d_model = 8
d_ff = 16
heads = 1

[optimizer]
lr = 0.003
batch_size = 6

[{method}]
"""


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


def test_span_hooks_run_on_attendout_and_attn_layerdrop_training():
    # a hook that raised would propagate out of train
    spans = _load_spans()
    rec = spans.Recorder("t")
    restore, _ = spans.install(rec)
    try:
        trainer.train(parse_config_text(
            TINY.format(method="attendout") + "dropout_step = 2\ngnet_lr = 0.3\n"))
        trainer.train(parse_config_text(TINY.format(method="attn_layerdrop") + "p = 0.5\n"))
    finally:
        restore()
    for mode in ("none", "scores", "all_dropped"):
        assert rec.counters[f"attention.attn_forward.calls.{mode}"] > 0
    assert rec.counters["policygrad.reinforce_update.decisions"] > 0


@pytest.mark.parametrize("method,section", [
    ("none", ""),
    ("vanilla", "p = 0.1\nmode = scores\n"),
    ("attendout", "dropout_step = 2\ngnet_lr = 0.3\n"),
], ids=["none", "vanilla", "attendout"])
def test_traced_run_metrics_are_strict_json(tmp_path, method, section):
    # what a `--trace 1` benchmark job reports: the run is refused when a
    # metric is null (a span target gone) or non-finite (bare NaN)
    spans = _load_spans()
    cfg_path = tmp_path / "run.ini"
    text = TINY.format(method=method) + section
    cfg_path.write_text(text.replace("\n[none]\n", "\n"))
    rec = spans.Recorder("t")
    restore, missing = spans.install(rec)
    try:
        main = rec.wrap(spans.CLI_MAIN, cli.main)
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    finally:
        restore()
    trace_path = tmp_path / "trace.json"
    rec.dump(trace_path, missing)
    summary = spans.summarize(json.loads(trace_path.read_text()))
    metrics = spans.job_metrics(summary)
    assert [k for k, v in metrics.items() if v is None] == []
    json.dumps(metrics, allow_nan=False)
    pooled = {k: v for k, v in spans.pooled_percentiles([summary]).items()
              if not k.endswith(".ms_p99")}
    assert [k for k, v in pooled.items() if v is None] == []
    json.dumps(pooled, allow_nan=False)
