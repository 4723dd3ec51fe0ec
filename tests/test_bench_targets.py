"""The traced benchmark wraps program functions by name from outside
(`perfbench/spans.py`), so a rename in `src/` would silently drop a span.
This keeps every wrapped name resolving, and every counter hook running on
the arguments the program passes, without running the benchmark."""

import importlib.util
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from attendout import cli, tasks, trainer
from attendout.config import parse_config_text

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"

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


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load_perfbench("spans")


def _run_child(tmp_path, mode, *options):
    """Run the benchmark's child.py in a fresh process, as perfbench/run.py does;
    returns the report it wrote."""
    report = tmp_path / f"{mode}.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), mode, "--src", str(ROOT / "src"),
         "--report", str(report), *options],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def test_benchmark_child_env_and_setup_run_on_every_workload(tmp_path):
    # child.py calls the package directly (tasks, config, models), so a
    # change to those calls would otherwise first fail inside the benchmark
    assert _run_child(tmp_path, "env")["numpy"]
    workloads = _load_perfbench("workloads")
    for name in workloads.WORKLOADS:
        ini = tmp_path / f"{name}.ini"
        ini.write_text(workloads.config_text(name, 1))
        setup_s = _run_child(tmp_path, "setup", "--config", str(ini))["setup_s"]
        assert math.isfinite(setup_s) and setup_s > 0, name


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


def test_span_hooks_run_on_weights_mode_training():
    # no shipped config and no benchmark workload runs WEIGHTS masks
    spans = _load_spans()
    rec = spans.Recorder("t")
    restore, _ = spans.install(rec)
    try:
        trainer.train(parse_config_text(
            TINY.format(method="vanilla") + "p = 0.2\nmode = weights\nrescale = true\n"))
    finally:
        restore()
    assert rec.counters["attention.attn_forward.calls.weights"] > 0


def test_gumbel_units_count_every_sampled_layer_unit():
    # one gumbel_binary_sample_array call draws a decision's N layers at
    # once, so its units counter must still read decisions x N x L^2
    cfg = parse_config_text(TINY.format(method="attendout") + "dropout_step = 2\ngnet_lr = 0.3\n")
    spans = _load_spans()
    rec = spans.Recorder("t")
    restore, _ = spans.install(rec)
    try:
        trainer.train(cfg)
    finally:
        restore()
    calls = Counter(rec.names[i] for i in rec.name)

    full = tasks.gen_majority_token(cfg.data_n, cfg.seq_len, cfg.vocab, cfg.seed)
    fractions = (cfg.train_fraction, cfg.dev_fraction, cfg.test_fraction)
    train_ds, _, _ = tasks.split(full, fractions, cfg.seed)
    decisions = cfg.epochs * len(train_ds)
    assert calls["models.gnet_sample_masks"] == decisions
    assert calls["numkernel.gumbel_binary_sample_array"] == decisions
    assert (rec.counters["numkernel.gumbel_binary_sample_array.units"]
            == decisions * cfg.layers * cfg.seq_len ** 2)


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


@pytest.mark.parametrize("method,section", [
    ("none", ""),
    ("vanilla", "p = 0.1\nmode = scores\n"),
    ("attendout", "dropout_step = 2\ngnet_lr = 0.3\n"),
], ids=["none", "vanilla", "attendout"])
def test_one_forward_and_backward_span_per_sequence(method, section):
    # A traced job reports the 99th percentile of task_forward and
    # task_backward only from spans.MIN_PERCENTILE_SAMPLES calls up, and a
    # short traced `wide` run holds one job of about 2,000 of them: called
    # once per batch instead of once per sequence, they would report null
    # and the traced run would be refused. A change that batches them has
    # to move these hooks in the benchmark first, and this test with it.
    cfg = parse_config_text(TINY.format(method=method).replace("\n[none]\n", "\n") + section)
    spans = _load_spans()
    rec = spans.Recorder("t")
    restore, _ = spans.install(rec)
    try:
        result = trainer.train(cfg)
    finally:
        restore()
    calls = Counter(rec.names[i] for i in rec.name)

    full = tasks.gen_majority_token(cfg.data_n, cfg.seq_len, cfg.vocab, cfg.seed)
    fractions = (cfg.train_fraction, cfg.dev_fraction, cfg.test_fraction)
    train_ds, dev_ds, _ = tasks.split(full, fractions, cfg.seed)
    models = 2 if method == "attendout" else 1  # defender and attacker
    trained = models * cfg.epochs * len(train_ds)
    evaluated = models * len(dev_ds)
    if method == "attendout":
        assert result.extra["g_updates"] > 0
        evaluated += models * cfg.dropout_step * result.extra["g_updates"]
    assert rec.counters["trainer.evaluate.samples"] == evaluated
    assert calls["models.task_forward"] == trained + evaluated
    assert calls["models.task_backward"] == trained
