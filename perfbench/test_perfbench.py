"""Tests of the benchmark itself: span arithmetic, the wrappers, and the
workload INIs. Run from the checkout root with `python -m pytest perfbench`."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

TINY_INI = """[run]
method = {method}
seed = 3
epochs = 1

[data]
task = majority_token
n = 40
seq_len = 8
vocab = 6
train_fraction = 0.5
dev_fraction = 0.3
test_fraction = 0.2

[model]
layers = 1
d_model = 8
d_ff = 8
heads = 2

[optimizer]
algo = adam
lr = 0.001
batch_size = 8
{section}"""


def _trace(rows, names):
    """Trace dict from (name, start, end, parent) rows."""
    return {
        "names": names,
        "name": [names.index(r[0]) for r in rows],
        "start": [r[1] for r in rows],
        "end": [r[2] for r in rows],
        "parent": [r[3] for r in rows],
        "counters": {}, "missing": [],
    }


def test_self_time_subtracts_union_of_children():
    # root [0, 100] holds a [10, 40] (itself holding a1 [15, 25]), and b, c,
    # which overlap each other and c runs past the root's end.
    start = [0, 10, 15, 50, 60]
    end = [100, 40, 25, 70, 110]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == [20, 20, 10, 20, 50]


def test_summary_and_job_metrics_on_a_nested_tree():
    names = ["cli.main", "trainer.train", "models.task_forward",
             "attention.attn_forward", "ptree.zeros_like"]
    rows = [
        ("cli.main", 0, 10_000_000, -1),
        ("trainer.train", 1_000_000, 9_000_000, 0),
        ("models.task_forward", 2_000_000, 5_000_000, 1),
        ("attention.attn_forward", 3_000_000, 4_000_000, 2),
        ("models.task_forward", 6_000_000, 7_000_000, 1),
        ("ptree.zeros_like", 7_500_000, 8_000_000, 1),
    ]
    summary = spans.summarize(_trace(rows, names))
    forward = summary["spans"]["models.task_forward"]
    assert forward["calls"] == 2
    assert forward["total_ns"] == 4_000_000
    assert forward["self_ns"] == 3_000_000
    assert forward["durations"] == [3_000_000, 1_000_000]
    assert summary["spans"]["trainer.train"]["self_ns"] == 8_000_000 - 4_500_000

    metrics = spans.job_metrics(summary)
    assert metrics["models.task_forward.self_ms"] == pytest.approx(3.0)
    assert metrics["trainer.train.self_ms"] == pytest.approx(3.5)
    assert metrics["cli.artifacts_ms"] == pytest.approx(2.0)
    assert metrics["ptree.zeros_like.calls"] == 1
    assert metrics["models.gnet_sample_masks.calls"] == 0

    pct = spans.pooled_percentiles([summary, summary])
    assert pct["models.task_forward.samples"] == 4
    assert pct["models.task_forward.ms_p50"] == pytest.approx(2.0)
    assert pct["models.task_forward.ms_p99"] is None  # fewer than 1000 samples
    assert pct["models.task_backward.ms_p50"] == 0.0  # never called


def test_missing_span_is_reported_as_missing_not_zero():
    summary = spans.summarize(_trace([], []))
    summary["missing"] = {"ptree.zeros_like"}
    metrics = spans.job_metrics(summary)
    assert metrics["ptree.zeros_like.calls"] is None
    assert metrics["ptree.zeros_like.self_ms"] is None
    assert metrics["ptree.add_scaled.calls"] == 0


def test_wrapper_returns_result_unchanged_and_records_parents():
    rec = spans.Recorder("t")
    marker = object()
    inner = rec.wrap("inner", lambda x: x)
    outer = rec.wrap("outer", lambda x: inner(x))
    assert outer(marker) is marker
    assert [rec.names[i] for i in rec.name] == ["outer", "inner"]
    assert rec.parent == [-1, 0]
    assert rec.start[0] <= rec.start[1] <= rec.end[1] <= rec.end[0]

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.end[-1] >= rec.start[-1] > 0
    assert rec._stack == []


def test_install_wraps_where_callers_look_up_and_restores():
    import numpy as np

    from attendout import attention, models, ptree, trainer

    before = {
        "task_forward": trainer.task_forward,
        "zeros_like": ptree.zeros_like,
        "from_drop_bits": vars(attention.MaskMatrix)["from_drop_bits"],
    }
    targets = spans.TARGETS + [("gone.function", "attendout.trainer", "no_such_name", None)]
    rec = spans.Recorder("t")
    restore, missing = spans.install(rec, targets)
    try:
        assert missing == {"gone.function"}
        assert trainer.task_forward is not before["task_forward"]
        assert isinstance(vars(attention.MaskMatrix)["from_drop_bits"], staticmethod)
        mcfg = models.ModelConfig(vocab_size=5, max_len=4, num_layers=1, d_model=4,
                                  d_ff=4, num_heads=1, num_classes=2)
        params = models.init_task_model(mcfg, 0)
        tokens = np.array([0, 1, 2, 3])
        wrapped, _ = trainer.task_forward(params, tokens)
        direct, _ = before["task_forward"](params, tokens)
        assert np.array_equal(wrapped, direct)
        bits = np.ones((3, 3), dtype=np.uint8)
        assert attention.MaskMatrix.from_drop_bits(bits).mode.value == "all_dropped"
        assert rec.counters["attention.MaskMatrix.from_drop_bits.escalated"] == 1
    finally:
        restore()
    assert trainer.task_forward is before["task_forward"]
    assert ptree.zeros_like is before["zeros_like"]
    assert vars(attention.MaskMatrix)["from_drop_bits"] is before["from_drop_bits"]


def _child_train(tmp_path, name, ini_text, trace):
    ini = tmp_path / "job.ini"
    ini.write_text(ini_text)
    argv = ["train", "--src", str(HERE.parent / "src"), "--config", str(ini),
            "--out", str(tmp_path / name), "--report", str(tmp_path / f"{name}.json")]
    if trace:
        argv += ["--trace", str(tmp_path / f"{name}.spans.json")]
    assert child.main(argv) == 0
    rows = (tmp_path / name / "metrics.jsonl").read_bytes()
    return hashlib.sha256(rows).hexdigest()


@pytest.mark.parametrize("method,section", [
    ("none", ""),
    ("attendout", "\n[attendout]\ndropout_step = 2\ngnet_lr = 1.5\n"),
])
def test_untraced_job_installs_nothing_and_traced_job_matches_it(tmp_path, monkeypatch,
                                                                 method, section):
    from attendout import trainer

    ini_text = TINY_INI.format(method=method, section=section)
    original = trainer.task_forward

    def refuse(*args, **kwargs):
        raise AssertionError("untraced job installed wrappers")

    with monkeypatch.context() as m:
        m.setattr(spans, "install", refuse)
        untraced = _child_train(tmp_path, "plain", ini_text, trace=False)
    assert trainer.task_forward is original

    traced = _child_train(tmp_path, "traced", ini_text, trace=True)
    assert traced == untraced
    assert trainer.task_forward is original
    trace = json.loads((tmp_path / "traced.spans.json").read_text())
    summary = spans.summarize(trace)
    assert summary["missing"] == set()
    assert summary["spans"]["models.task_forward"]["calls"] > 0
    assert spans.CLI_MAIN in summary["spans"]


def test_config_text_is_a_pure_function_of_workload_and_seed(monkeypatch, tmp_path):
    from attendout.config import parse_config_text

    first = {(w, s): config_text(w, s) for w in WORKLOADS for s in (1, 2)}
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ATTENDOUT_OUT_ROOT", str(tmp_path))
    assert first == {(w, s): config_text(w, s) for w in WORKLOADS for s in (1, 2)}
    for w in WORKLOADS:
        one, two = first[(w, 1)].splitlines(), first[(w, 2)].splitlines()
        assert [a for a, b in zip(one, two) if a != b] == ["seed = 1"]
        cfg = parse_config_text(first[(w, 1)])
        assert (cfg.method, cfg.seq_len, cfg.d_model) == (
            WORKLOADS[w].method, WORKLOADS[w].seq_len, WORKLOADS[w].d_model)


def test_benchmark_json_names_every_metric_the_benchmark_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = run._end_to_end([0.1], [])
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    empty = spans.summarize(_trace([], []))
    emitted = set(spans.job_metrics(empty)) | set(spans.pooled_percentiles([empty]))
    emitted |= {"trace.steps_per_s_gap", "trace.overhead_fraction"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
