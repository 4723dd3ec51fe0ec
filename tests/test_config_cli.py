import json
from pathlib import Path

import numpy as np
import pytest

from attendout import checks, cli
from attendout.cli import main
from attendout.config import parse_config_text
from attendout.numkernel import ConfigError, DivergenceError, OracleError, ShapeError

MINIMAL = """
[run]
method = none
seed = 1
epochs = 1

[data]
task = majority_token
n = 60
seq_len = 8
vocab = 6
train_fraction = 0.6
dev_fraction = 0.2
test_fraction = 0.2

[model]
layers = 1
d_model = 8
d_ff = 16
heads = 1

[optimizer]
algo = adam
lr = 0.003
batch_size = 6
"""

ATTENDOUT_SECTION = """
[attendout]
dropout_step = 2
gnet_lr = 0.3
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_minimal_config_parses():
    cfg = parse_config_text(MINIMAL)
    assert cfg.method == "none" and cfg.batch_size == 6
    assert cfg.fairness_hash


def test_missing_field_names_the_field():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL.replace("seed = 1\n", ""))
    assert "seed" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL.replace("heads = 1", "heads = 1\nextra_knob = 3"))
    assert "extra_knob" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\n[mystery]\nx = 1\n")


def test_method_section_required_exactly_when_needed():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL.replace("method = none", "method = attendout"))
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + ATTENDOUT_SECTION)  # method none forbids it
    cfg = parse_config_text(
        MINIMAL.replace("method = none", "method = attendout") + ATTENDOUT_SECTION
    )
    assert cfg.dropout_step == 2
    assert cfg.gnet_dim == 4  # defaults to d_model // 2


def test_fairness_hash_ignores_method_seed_and_method_sections():
    a = parse_config_text(MINIMAL)
    b = parse_config_text(
        MINIMAL.replace("method = none", "method = attendout")
               .replace("seed = 1", "seed = 99") + ATTENDOUT_SECTION
    )
    c = parse_config_text(MINIMAL.replace("lr = 0.003", "lr = 0.004"))
    assert a.fairness_hash == b.fairness_hash
    assert a.fairness_hash != c.fairness_hash


def test_scheduled_needs_exactly_one_source():
    base = MINIMAL.replace("method = none", "method = scheduled")
    with pytest.raises(ConfigError):
        parse_config_text(base + "\n[scheduled]\np0 = 0.6\n")
    with pytest.raises(ConfigError):
        parse_config_text(base + "\n[scheduled]\n")
    cfg = parse_config_text(base + "\n[scheduled]\np0 = 0.6\nslope = -0.001\n")
    assert cfg.sched_p0 == [0.6]


def test_brackets_vocab_pinned():
    text = MINIMAL.replace("task = majority_token", "task = balanced_brackets")
    with pytest.raises(ConfigError):
        parse_config_text(text)
    ok = text.replace("vocab = 6", "vocab = 3").replace("seq_len = 8", "seq_len = 9")
    assert parse_config_text(ok).task == "balanced_brackets"


# ---------------------------------------------------------------------------
# cmd_train
# ---------------------------------------------------------------------------


def test_cmd_train_writes_artifacts(tmp_path):
    cfg_path = _write(tmp_path, "run.ini", MINIMAL)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "metrics.jsonl").exists()
    assert (out / "model.npz").exists()
    assert (out / "result.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "none"
    assert "[run]" in manifest["config_text"]
    rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert all(set(row) >= {"step", "epoch", "method", "loss_D"} for row in rows)


def test_every_manifest_output_exists_after_a_run_without_trace(tmp_path):
    cfg_path = _write(tmp_path, "run.ini", MINIMAL)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert all((out / name).exists() for name in manifest["outputs"].values())
    # method none samples no masks: the trace is its header alone
    assert (out / "mask_trace.csv").read_text().splitlines() == \
        ["step,layer,mean_drop_prob"]


def test_cmd_train_rerun_is_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, "run.ini",
                      MINIMAL.replace("method = none", "method = attendout")
                      + ATTENDOUT_SECTION)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        blobs.append((out / "metrics.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


def test_cmd_train_invalid_config_nonzero_exit(tmp_path, capsys):
    cfg_path = _write(tmp_path, "bad.ini", MINIMAL.replace("epochs = 1\n", ""))
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
    assert "epochs" in capsys.readouterr().err


ATTENDOUT_CFG = MINIMAL.replace("method = none", "method = attendout") + ATTENDOUT_SECTION
SCHEDULED_2_LAYERS = (MINIMAL.replace("method = none", "method = scheduled")
                      .replace("layers = 1", "layers = 2"))


@pytest.mark.parametrize("text", [
    ATTENDOUT_CFG + "baseline_decay = 1.5\n",
    ATTENDOUT_CFG + "gnet_dim = -4\n",
    ATTENDOUT_CFG + "eval_pool = train_slice\neval_slice_fraction = 1.5\n",
    MINIMAL.replace("task = majority_token", "task = balanced_brackets")
           .replace("vocab = 6", "vocab = 3"),
    SCHEDULED_2_LAYERS + "\n[scheduled]\np0 = 0.1\nslope = 0.0, 0.0, 0.0\n",
    ATTENDOUT_CFG.replace("train_fraction = 0.6", "train_fraction = 0.7"),
    ATTENDOUT_CFG.replace("heads = 1", "heads = 3"),
    ATTENDOUT_CFG.replace("dev_fraction = 0.2", "dev_fraction = 0.01")
                 .replace("test_fraction = 0.2", "test_fraction = 0.19"),
    MINIMAL.replace("vocab = 6", "vocab = 2"),
    SCHEDULED_2_LAYERS + "\n[scheduled]\nschedule_file = {tmp}/missing.schedule\n",
    SCHEDULED_2_LAYERS + "\n[scheduled]\nschedule_file = {tmp}/layer5.schedule\n",
    # gnet_dim 0 resolves to d_model // 2 = 0
    ATTENDOUT_CFG.replace("d_model = 8", "d_model = 1").replace("d_ff = 16", "d_ff = 4"),
    MINIMAL.replace("lr = 0.003", "lr = nan"),
    MINIMAL.replace("lr = 0.003", "lr = inf"),
    ATTENDOUT_CFG.replace("gnet_lr = 0.3", "gnet_lr = nan"),
    MINIMAL + "momentum = nan\n",
    MINIMAL + "momentum = -0.5\n",
    MINIMAL + "momentum = 1.5\n",
    MINIMAL + "momentum = 1.0\n",
    MINIMAL.replace("seed = 1", "seed = -1"),
    MINIMAL.replace("seed = 1", f"seed = {1 << 64}"),
    # options that the chosen algorithm or mode would ignore
    MINIMAL + "momentum = 0.9\n",
    MINIMAL.replace("method = none", "method = vanilla")
    + "\n[vanilla]\np = 0.1\nmode = scores\nrescale = true\n",
    MINIMAL.replace("method = none", "method = vanilla")
    + "\n[vanilla]\np = 0.1\nrescale = true\n",
], ids=["baseline_decay", "gnet_dim", "eval_slice_fraction", "brackets_even_seq_len",
        "scheduled_slope_count", "fraction_sum", "heads", "eval_pool_below_T",
        "majority_vocab", "schedule_file_missing", "schedule_file_layer_out_of_range",
        "gnet_dim_resolves_to_zero", "lr_nan", "lr_inf", "gnet_lr_nan",
        "momentum_nan", "momentum_negative", "momentum_above_one", "momentum_one",
        "seed_negative", "seed_2_64", "momentum_under_adam", "rescale_under_scores",
        "rescale_under_default_mode"])
def test_cmd_train_bad_value_fails_before_run_dir(tmp_path, capsys, text):
    _write(tmp_path, "layer5.schedule", "0 0 0.5\n5 0 0.5\n1 0 0.5\n")
    cfg_path = _write(tmp_path, "bad.ini", text.replace("{tmp}", str(tmp_path)))
    out = tmp_path / "out"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cmd_train_honors_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ATTENDOUT_OUT_ROOT", str(tmp_path))
    cfg_path = _write(tmp_path, "run.ini", MINIMAL)
    assert main(["train", "--config", cfg_path, "--out", "nested/run"]) == 0
    assert (tmp_path / "nested" / "run" / "metrics.jsonl").exists()


# ---------------------------------------------------------------------------
# cmd_gradcheck
# ---------------------------------------------------------------------------


def test_cmd_gradcheck_passes_and_reports_timing(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "task_model" in out and "PASS" in out and "s)" in out


def test_cmd_gradcheck_corruption_fails_naming_tensor(capsys):
    assert main(["gradcheck", "--corrupt", "attn.w_v"]) == 1
    err = capsys.readouterr().err
    assert "attn.w_v" in err


def test_cmd_gradcheck_oracle_error_exits_two_with_message(monkeypatch, capsys):
    def failing_check(seed, corrupt=None):
        raise OracleError("non-finite evaluation at coordinate 3")
    monkeypatch.setattr(checks, "gradcheck_attention", failing_check)
    assert main(["gradcheck"]) == 2
    assert capsys.readouterr().err == "error: non-finite evaluation at coordinate 3\n"


# ---------------------------------------------------------------------------
# cmd_replay_schedule
# ---------------------------------------------------------------------------


def test_replay_constant_zero_schedule_matches_none(tmp_path):
    cfg_path = _write(tmp_path, "run.ini", MINIMAL)
    sched_path = _write(tmp_path, "zero.schedule", "0 0 0.0\n0 100 0.0\n")
    out_none = tmp_path / "none"
    out_replay = tmp_path / "replay"
    assert main(["train", "--config", cfg_path, "--out", str(out_none)]) == 0
    assert main(["replay-schedule", "--schedule", sched_path,
                 "--config", cfg_path, "--out", str(out_replay)]) == 0
    losses_none = [json.loads(l)["loss_D"]
                   for l in (out_none / "metrics.jsonl").read_text().splitlines()]
    losses_replay = [json.loads(l)["loss_D"]
                     for l in (out_replay / "metrics.jsonl").read_text().splitlines()]
    assert losses_none == losses_replay  # bitwise equal loss stream


def test_replay_realized_trace_hits_breakpoints(tmp_path):
    # the run spans 6 optimizer steps (36 train examples, batches of 6)
    cfg_path = _write(tmp_path, "run.ini", MINIMAL)
    sched_path = _write(tmp_path, "ramp.schedule", "0 0 0.8\n0 4 0.4\n0 5 0.1\n")
    out = tmp_path / "replay"
    assert main(["replay-schedule", "--schedule", sched_path,
                 "--config", cfg_path, "--out", str(out)]) == 0
    trace = {}
    header, *lines = (out / "mask_trace.csv").read_text().splitlines()
    assert header == "step,layer,mean_drop_prob"
    for line in lines:
        step, layer, prob = line.split(",")
        trace[(int(step), int(layer))] = float(prob)
    assert trace[(0, 0)] == 0.8
    assert trace[(4, 0)] == 0.4
    assert trace[(5, 0)] == 0.1
    assert trace[(2, 0)] == pytest.approx(0.6)


def test_replay_rejects_other_methods(tmp_path):
    cfg_path = _write(tmp_path, "run.ini",
                      MINIMAL.replace("method = none", "method = attendout")
                      + ATTENDOUT_SECTION)
    sched_path = _write(tmp_path, "s.schedule", "0 0 0.5\n")
    assert main(["replay-schedule", "--schedule", sched_path,
                 "--config", cfg_path]) == 2


def test_replay_malformed_schedule_errors(tmp_path, capsys):
    cfg_path = _write(tmp_path, "run.ini", MINIMAL)
    sched_path = _write(tmp_path, "bad.schedule", "0 0 0.5\noops\n")
    assert main(["replay-schedule", "--schedule", sched_path,
                 "--config", cfg_path]) == 2
    assert ":2:" in capsys.readouterr().err


def test_replay_schedule_from_adversarial_trace(tmp_path):
    # pipeline: adversarial run -> mask trace -> schedule file -> replay
    ao_cfg = _write(tmp_path, "ao.ini",
                    MINIMAL.replace("method = none", "method = attendout")
                    + ATTENDOUT_SECTION)
    out_ao = tmp_path / "ao"
    assert main(["train", "--config", ao_cfg, "--out", str(out_ao)]) == 0
    trace_rows = []
    header, *lines = (out_ao / "mask_trace.csv").read_text().splitlines()
    assert header == "window,layer,mean_drop_prob"
    for line in lines:
        window, layer, prob = line.split(",")
        trace_rows.append((int(window), int(layer), float(prob)))
    assert trace_rows
    sched_path = tmp_path / "from_trace.schedule"
    # window w of T = 2 steps starts at optimizer step 2 * w
    sched_path.write_text("".join(f"{layer} {window * 2} {prob:.6f}\n"
                                  for window, layer, prob in trace_rows))
    base_cfg = _write(tmp_path, "base.ini", MINIMAL)
    assert main(["replay-schedule", "--schedule", str(sched_path),
                 "--config", base_cfg, "--out", str(tmp_path / "replayed")]) == 0


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _count_schedule_reads(monkeypatch) -> list:
    """Route every module's load_schedule_file through one counting wrapper."""
    import attendout.config
    import attendout.regularizers
    import attendout.trainer

    calls = []
    real = attendout.regularizers.load_schedule_file

    def counting(path, num_layers):
        calls.append(str(path))
        return real(path, num_layers)

    for module in (attendout.config, attendout.trainer, cli):
        if hasattr(module, "load_schedule_file"):
            monkeypatch.setattr(module, "load_schedule_file", counting)
    return calls


def test_scheduled_train_reads_its_schedule_file_once(tmp_path, monkeypatch):
    text = (CONFIGS / "scheduled.ini").read_text().replace("epochs = 8", "epochs = 0")
    text = text[:text.index("[scheduled]")]
    text += f"[scheduled]\nschedule_file = {CONFIGS / 'example.schedule'}\n"
    cfg_path = _write(tmp_path, "sched.ini", text)
    calls = _count_schedule_reads(monkeypatch)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_replay_schedule_reads_its_schedule_file_once(tmp_path, monkeypatch):
    text = (CONFIGS / "none.ini").read_text().replace("epochs = 8", "epochs = 0")
    cfg_path = _write(tmp_path, "none.ini", text)
    calls = _count_schedule_reads(monkeypatch)
    assert main(["replay-schedule", "--schedule", str(CONFIGS / "example.schedule"),
                 "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# cmd_compare
# ---------------------------------------------------------------------------


def test_compare_identical_configs_identical_accuracies(tmp_path):
    a = _write(tmp_path, "a.ini", MINIMAL)
    b = _write(tmp_path, "b.ini", MINIMAL)
    out = tmp_path / "cmp"
    assert main(["compare", a, b, "--seeds", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary[0]["mean_dev_accuracy"] == summary[1]["mean_dev_accuracy"]


def test_compare_summary_matches_per_run_results(tmp_path):
    a = _write(tmp_path, "none.ini", MINIMAL)
    b = _write(tmp_path, "vanilla.ini",
               MINIMAL.replace("method = none", "method = vanilla")
               + "\n[vanilla]\np = 0.2\n")
    out = tmp_path / "cmp"
    assert main(["compare", a, b, "--seeds", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary) == 2
    for row in summary:
        per_run = []
        for run in row["runs"]:
            result = json.loads((Path(run["dir"]) / "result.json").read_text())
            assert result["dev_accuracy"] == run["dev_accuracy"]
            per_run.append(result["dev_accuracy"])
        assert row["mean_dev_accuracy"] == pytest.approx(float(np.mean(per_run)))
        assert np.isfinite(row["mean_dev_accuracy"])


def test_compare_keeps_the_loaded_schedule_on_every_seed(tmp_path, monkeypatch):
    sched_path = _write(tmp_path, "ramp.schedule", "0 0 0.8\n0 5 0.1\n")
    a = _write(tmp_path, "none.ini", MINIMAL)
    b = _write(tmp_path, "sched.ini",
               MINIMAL.replace("method = none", "method = scheduled")
               + f"\n[scheduled]\nschedule_file = {sched_path}\n")
    calls = _count_schedule_reads(monkeypatch)
    out = tmp_path / "cmp"
    assert main(["compare", a, b, "--seeds", "2", "--out", str(out)]) == 0
    assert len(calls) == 1
    for run in json.loads((out / "summary.json").read_text())[1]["runs"]:
        trace = (Path(run["dir"]) / "mask_trace.csv").read_text().splitlines()
        assert trace[1] == "0,0,0.8"


# Seeds index a 64-bit random stream: one outside [0, 2^64) would silently
# replay an in-range seed's run (2^64 is seed 0, -1 is seed 2^64 - 1).
@pytest.mark.parametrize("argv", [
    "train --config {cfg} --seed -1 --out {out}",
    f"train --config {{cfg}} --seed {1 << 64} --out {{out}}",
    "replay-schedule --schedule {sched} --config {cfg} --seed -1 --out {out}",
    f"gradcheck --seed {1 << 64}",
    "compare {cfg} {cfg} --seeds 0 --out {out}",
    "compare {cfg} {cfg} --seeds -2 --out {out}",
    f"compare {{cfg}} {{cfg}} --seed {(1 << 64) - 1} --seeds 2 --out {{out}}",
], ids=["train_seed_negative", "train_seed_2_64", "replay_seed_negative",
        "gradcheck_seed_2_64", "compare_no_seeds", "compare_negative_seeds",
        "compare_last_seed_2_64"])
def test_cli_rejects_a_seed_set_outside_the_stream_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    args = argv.format(cfg=_write(tmp_path, "run.ini", MINIMAL), out=out,
                       sched=CONFIGS / "example.schedule").split()
    assert main(args) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "train --config {cfg} --out {taken}",
    "train --config {dir} --out {out}",
    "train --config {latin1_cfg} --out {out}",
    "replay-schedule --config {cfg} --schedule {dir} --out {out}",
    "replay-schedule --config {cfg} --schedule {latin1_sched} --out {out}",
    "compare {cfg} {latin1_cfg} --out {out}",
], ids=["train_out_is_a_file", "train_config_is_a_dir", "train_config_not_utf8",
        "replay_schedule_is_a_dir", "replay_schedule_not_utf8", "compare_config_not_utf8"])
def test_cli_file_errors_exit_two_with_one_line_before_writing(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    latin1_cfg = tmp_path / "latin1.ini"
    latin1_cfg.write_bytes(("# caf\xe9\n" + MINIMAL).encode("latin-1"))
    latin1_sched = tmp_path / "latin1.schedule"
    latin1_sched.write_bytes("# caf\xe9\n0 0 0.0\n".encode("latin-1"))
    out = tmp_path / "out"
    args = argv.format(cfg=_write(tmp_path, "run.ini", MINIMAL), taken=taken, dir=tmp_path,
                       latin1_cfg=latin1_cfg, latin1_sched=latin1_sched, out=out).split()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    assert taken.read_text() == "keep\n"


def test_compare_rejects_unfair_configs(tmp_path):
    a = _write(tmp_path, "a.ini", MINIMAL)
    b = _write(tmp_path, "b.ini", MINIMAL.replace("lr = 0.003", "lr = 0.01"))
    assert main(["compare", a, b, "--seeds", "1",
                 "--out", str(tmp_path / "cmp")]) == 2


# ---------------------------------------------------------------------------
# strict JSON artifacts and exit codes
# ---------------------------------------------------------------------------


def _strict_load(path):
    """json.loads that refuses the NaN / Infinity extensions."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


NO_DEV = MINIMAL.replace("train_fraction = 0.6", "train_fraction = 0.8") \
                .replace("dev_fraction = 0.2", "dev_fraction = 0.0")


def test_empty_dev_split_writes_null_accuracy(tmp_path):
    cfg_path = _write(tmp_path, "nodev.ini", NO_DEV)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    assert _strict_load(out / "result.json")["dev_accuracy"] is None
    b = _write(tmp_path, "nodev_b.ini", NO_DEV)
    cmp_out = tmp_path / "cmp"
    assert main(["compare", cfg_path, b, "--seeds", "1", "--out", str(cmp_out)]) == 0
    summary = _strict_load(cmp_out / "summary.json")
    assert summary[0]["mean_dev_accuracy"] is None
    assert summary[0]["runs"][0]["dev_accuracy"] is None


@pytest.mark.parametrize("exc", [DivergenceError("non-finite gradient in head_w"),
                                 ShapeError("sequence length 9 exceeds max_len 8")])
def test_training_errors_exit_two_with_message(tmp_path, monkeypatch, capsys, exc):
    def failing_train(cfg):
        raise exc
    monkeypatch.setattr(cli, "train", failing_train)
    cfg_path = _write(tmp_path, "run.ini", MINIMAL)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {exc}\n"
