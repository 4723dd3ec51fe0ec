"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one printed PASS line
per criterion, with the measured quantity and its bound. Every tolerance is
pinned here; nothing is deferred to later calibration.
"""

import json
import math
import time

import numpy as np

from attendout import numkernel as nk
from attendout import ptree
from attendout.attention import MaskMatrix, attn_forward, constant_attention
from attendout.checks import (
    gradcheck_generator,
    gradcheck_task_model,
)
from attendout.cli import main as cli_main
from attendout.config import parse_config_text
from attendout.models import (
    GeneratorConfig,
    ModelConfig,
    gnet_sample_masks,
    init_generator,
    init_task_model,
    task_forward,
)
from attendout.policygrad import Baseline, expected_reward_oracle, update_baseline, compute_rewards
from attendout.regularizers import layerdrop_decision
from attendout.trainer import train
from conftest import logprob_grad, rand_attention


def _report(criterion: int, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion:2d} PASS  {detail}")


SHARED_SECTIONS = """
[data]
task = majority_token
n = 1000
seq_len = 16
vocab = 12
train_fraction = 0.5
dev_fraction = 0.3
test_fraction = 0.2

[model]
layers = 2
d_model = 32
d_ff = 64
heads = 2

[optimizer]
algo = adam
lr = 0.001
batch_size = 8
"""


def _run_config(method: str, seed: int, epochs: int, extra: str = "") -> str:
    return (f"[run]\nmethod = {method}\nseed = {seed}\nepochs = {epochs}\n"
            + SHARED_SECTIONS + extra)


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.time()
    reports = gradcheck_task_model(seed=0, h=1e-5)
    reports += gradcheck_generator(seed=0, h=1e-5)
    worst = max(reports, key=lambda r: r.max_rel_err)
    assert all(r.max_rel_err <= 1e-4 for r in reports), worst
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(1, f"max rel err {worst.max_rel_err:.2e} <= 1e-4 over "
               f"{len(reports)} tensors ({elapsed:.1f}s < 120s)")


# ---------------------------------------------------------------------------
# 2. constant-attention exactness
# ---------------------------------------------------------------------------


def test_criterion_2_constant_attention_exactness():
    rng = nk.RngState(2).derive("crit2")
    worst = 0.0
    for length in (1, 3, 4, 9):
        v = rng.normal_array((length, 8))
        pre = constant_attention(v)
        mean = np.array([sum(v[i, j] for i in range(length)) / length
                         for j in range(8)])
        worst = max(worst, float(np.abs(pre - mean).max()))
    assert worst <= 1e-12

    cfg = ModelConfig(vocab_size=9, max_len=8, num_layers=2, d_model=16,
                      d_ff=32, num_heads=2, num_classes=2)
    params = init_task_model(cfg, 7)
    tokens = np.array([0, 5, 2, 8, 1, 7, 4, 3])
    bits = layerdrop_decision(2, 1.0, nk.RngState(0))
    via_layerdrop, _ = task_forward(params, tokens, layer_masks=[
        MaskMatrix.all_dropped() if b else None for b in bits])
    via_masks, _ = task_forward(params, tokens, layer_masks=[
        MaskMatrix.from_drop_bits(np.ones((8, 8), dtype=np.uint8))] * 2)
    assert np.array_equal(via_layerdrop, via_masks)
    _report(2, f"pre-projection rows equal column mean of V to {worst:.1e} "
               "<= 1e-12; attention-layerdrop p=1 bitwise equals all-dropped masks")


# ---------------------------------------------------------------------------
# 3. masked-softmax normalization
# ---------------------------------------------------------------------------


def test_criterion_3_masked_softmax_normalization():
    length = 16
    params = rand_attention(3, d=16, heads=2)
    rng = nk.RngState(3).derive("crit3")
    worst = 0.0
    for _ in range(1000):
        x = rng.normal_array((length, 16)) * 0.5
        while True:
            bits = (rng.uniform_array(length * length).reshape(length, length)
                    < 0.4).astype(np.uint8)
            if not np.any(np.all(bits != 0, axis=1)):
                break
        _, cache = attn_forward(x, params, MaskMatrix.from_drop_bits(bits))
        worst = max(worst, float(np.abs(cache.attn.sum(axis=2) - 1.0).max()))
    assert worst <= 1e-12
    _report(3, f"1000 random masked trials, worst row-sum deviation {worst:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# 4. REINFORCE unbiasedness
# ---------------------------------------------------------------------------


def test_criterion_4_reinforce_unbiasedness():
    start = time.time()
    gparams = init_generator(GeneratorConfig(vocab_size=5, dim=3, tau=1.0), 11)
    tokens = np.array([1, 3])
    table_rng = nk.RngState(4).derive("crit4")
    table = {idx: table_rng.uniform() for idx in range(16)}

    def reward_fn(masks):
        bits = masks[0].ravel()
        idx = (int(bits[0]) | int(bits[1]) << 1
               | int(bits[2]) << 2 | int(bits[3]) << 3)
        return table[idx]

    _, oracle = expected_reward_oracle(gparams, tokens, 1, reward_fn)
    exact = ptree.flatten(oracle)

    n = 50_000
    rng = nk.RngState(4).derive("crit4-mc")
    total = np.zeros_like(exact)
    total_sq = np.zeros_like(exact)
    for _ in range(n):
        decision = gnet_sample_masks(gparams, tokens, 1, rng)
        vec = ptree.flatten(logprob_grad(gparams, tokens, decision))
        vec *= reward_fn(decision.masks)
        total += vec
        total_sq += vec * vec
    mean = total / n
    se = np.sqrt(np.maximum(total_sq / n - mean**2, 0.0) / n)
    dev = np.abs(mean - exact)
    ok = (dev <= 0.02 * np.abs(exact)) | (dev <= 3 * se + 1e-15)
    elapsed = time.time() - start
    assert np.all(ok)
    assert elapsed < 60.0
    rel = dev / np.maximum(np.abs(exact), 1e-12)
    _report(4, f"50k-sample mean within 2% or 3 sigma per coordinate "
               f"(worst rel {rel.max():.3f}, worst z {np.max(dev / np.maximum(se, 1e-15)):.2f}, "
               f"{elapsed:.0f}s < 60s)")


# ---------------------------------------------------------------------------
# 5. baseline behavior
# ---------------------------------------------------------------------------


def test_criterion_5_baseline_variance_and_mean():
    gparams = init_generator(GeneratorConfig(vocab_size=5, dim=3, tau=1.0), 11)
    tokens = np.array([1, 3])
    table_rng = nk.RngState(5).derive("crit5")
    table = {idx: table_rng.uniform() for idx in range(16)}

    def reward_fn(masks):
        bits = masks[0].ravel()
        idx = (int(bits[0]) | int(bits[1]) << 1
               | int(bits[2]) << 2 | int(bits[3]) << 3)
        return table[idx]

    n = 20_000

    def run(seed, with_baseline):
        # the moving average is predictable: each advantage subtracts the
        # value accumulated from the rewards seen so far, then the current
        # reward is folded in via the real update rule
        rng = nk.RngState(seed).derive("crit5-mc")
        baseline = Baseline(decay=0.9)
        total = total_sq = None
        for _ in range(n):
            decision = gnet_sample_masks(gparams, tokens, 1, rng)
            reward = reward_fn(decision.masks)
            if with_baseline:
                advantage = (reward - baseline.value) if baseline.initialized else 0.0
                record = compute_rewards(reward, 0.0, "gap")
                baseline = update_baseline(baseline, record)
            else:
                advantage = reward
            vec = ptree.flatten(logprob_grad(gparams, tokens, decision))
            vec *= advantage
            if total is None:
                total, total_sq = vec.copy(), vec * vec
            else:
                total += vec
                total_sq += vec * vec
        mean = total / n
        var = total_sq / n - mean**2
        return mean, var

    mean_b0, var_b0 = run(50, with_baseline=False)
    mean_ma, var_ma = run(50, with_baseline=True)
    assert var_ma.sum() <= var_b0.sum()
    se = np.sqrt((var_b0 + var_ma) / n)
    z = np.abs(mean_ma - mean_b0) / np.maximum(se, 1e-15)
    assert np.all(z <= 4.0)
    _report(5, f"variance with moving-average baseline {var_ma.sum():.3e} <= "
               f"{var_b0.sum():.3e} without; mean shift within CI (worst z {z.max():.2f})")


# ---------------------------------------------------------------------------
# 6. sampler statistics
# ---------------------------------------------------------------------------


def test_criterion_6_gumbel_sampler_statistics():
    n = 200_000
    rng = nk.RngState(6).derive("crit6")
    details = []
    for logit in (-2.0, 0.0, 1.0, 3.0):
        bits, _ = nk.gumbel_binary_sample_array(np.full(n, logit), rng)
        p = 1.0 / (1.0 + math.exp(-logit))
        sigma = math.sqrt(p * (1 - p) / n)
        dev = abs(float(bits.mean()) - p)
        assert dev <= 3 * sigma
        details.append(f"logit {logit:+.0f}: |{bits.mean():.4f} - {p:.4f}| <= {3*sigma:.4f}")
    _report(6, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. adversarial loop structure
# ---------------------------------------------------------------------------


def test_criterion_7_algorithm_structure(tmp_path):
    # 60 train examples, batches of 8 -> 8 steps per epoch; T=7 leaves a
    # partial trailing window, exercising the floor(steps / T) count
    extra = "\n[attendout]\ndropout_step = 7\ngnet_lr = 0.5\n"
    text = ("[run]\nmethod = attendout\nseed = 21\nepochs = 3\n"
            + SHARED_SECTIONS.replace("n = 1000", "n = 120")
            + extra)
    cfg = parse_config_text(text)
    result = train(cfg)
    total = result.extra["total_steps"]
    assert total == 24
    assert result.extra["g_updates"] == total // 7 == 3
    assert result.extra["boundary_identical"]
    assert result.extra["cache_empty"]

    cfg_path = tmp_path / "crit7.ini"
    cfg_path.write_text(text)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        blobs.append((out / "metrics.jsonl").read_bytes())
    assert blobs[0] == blobs[1]
    _report(7, f"defender == attacker bitwise at every boundary; cache empty; "
               f"{result.extra['g_updates']} == floor({total}/7) generator updates; "
               f"metrics byte-identical across reruns ({len(blobs[0])} bytes)")


# ---------------------------------------------------------------------------
# 8. desk-scale training effect
# ---------------------------------------------------------------------------


def test_criterion_8_training_effect_over_seeds():
    start = time.time()
    seeds = (1, 2, 3, 4, 5)
    attendout_extra = "\n[attendout]\ndropout_step = 16\ngnet_lr = 1.5\n"
    none_accs, ao_accs, movements, finals = [], [], [], []
    for seed in seeds:
        res = train(parse_config_text(_run_config("none", seed, 10)))
        none_accs.append(res.dev_accuracy)
    for seed in seeds:
        res = train(parse_config_text(_run_config("attendout", seed, 10,
                                                  attendout_extra)))
        ao_accs.append(res.dev_accuracy)
        per_layer = {}
        for _, layer, prob in res.mask_trace:
            per_layer.setdefault(layer, []).append(prob)
        movements.append(max(max(v) - min(v) for v in per_layer.values()))
        finals.append([v[-1] for _, v in sorted(per_layer.items())])
    mean_none = float(np.mean(none_accs))
    mean_ao = float(np.mean(ao_accs))
    assert mean_ao >= mean_none - 0.005, (none_accs, ao_accs)
    assert all(m >= 0.05 for m in movements), movements
    elapsed = time.time() - start
    assert elapsed < 1800.0
    mean_final = np.mean(np.array(finals), axis=0)
    ordering = ("lower layers higher" if mean_final[0] > mean_final[-1]
                else "upper layers higher")
    _report(8, f"mean dev accuracy {mean_ao:.4f} (adversarial) vs {mean_none:.4f} "
               f"(plain) over 5 seeds; trace movement min {min(movements):.3f} >= 0.05; "
               f"final per-layer drop prob {np.round(mean_final, 3).tolist()} "
               f"({ordering}; reported, not asserted) ({elapsed:.0f}s < 1800s)")


# ---------------------------------------------------------------------------
# 9. scheduler fidelity
# ---------------------------------------------------------------------------


def test_criterion_9_scheduler_fidelity(tmp_path):
    # replay must reproduce the configured probabilities exactly at the
    # breakpoints (run spans 10 epochs * 8 steps = 80 steps on n = 128)
    cfg_text = ("[run]\nmethod = none\nseed = 31\nepochs = 10\n"
                + SHARED_SECTIONS.replace("n = 1000", "n = 128"))
    cfg_path = tmp_path / "base.ini"
    cfg_path.write_text(cfg_text)
    sched_path = tmp_path / "crit9.schedule"
    sched_path.write_text(
        "0 0 0.55\n0 40 0.55\n0 70 0.25\n"
        "1 0 0.60\n1 30 0.30\n1 60 0.45\n"
    )
    out = tmp_path / "replay"
    assert cli_main(["replay-schedule", "--schedule", str(sched_path),
                     "--config", str(cfg_path), "--out", str(out)]) == 0
    realized = {}
    for line in (out / "mask_trace.csv").read_text().splitlines()[1:]:
        step, layer, prob = line.split(",")
        realized[(int(step), int(layer))] = float(prob)
    for layer, points in ((0, [(0, 0.55), (40, 0.55), (70, 0.25)]),
                          (1, [(0, 0.60), (30, 0.30), (60, 0.45)])):
        for step, want in points:
            assert realized[(step, layer)] == want

    # the all-layers p0 = 0.6 with per-layer slopes configuration
    sched_cfg = parse_config_text(
        "[run]\nmethod = scheduled\nseed = 32\nepochs = 2\n"
        + SHARED_SECTIONS.replace("n = 1000", "n = 128")
        + "\n[scheduled]\np0 = 0.6\nslope = -0.004, -0.008\n"
    )
    result = train(sched_cfg)
    assert np.isfinite(result.dev_accuracy)
    assert result.metrics[0]["drop_prob"] == [0.6, 0.6]
    last = result.metrics[-1]["drop_prob"]
    assert last[0] > last[1]  # steeper slope decays faster
    _report(9, "replayed trace equals the schedule at all 6 breakpoints; "
               f"p0=0.6 per-layer-slope run finished at drop_prob {np.round(last, 3).tolist()}")


# ---------------------------------------------------------------------------
# 10. baseline regularizers under the fair comparison harness
# ---------------------------------------------------------------------------


def test_criterion_10_baseline_regularizers_table(tmp_path):
    shared = SHARED_SECTIONS.replace("n = 1000", "n = 400")
    specs = {
        "none": "",
        "vanilla01": "\n[vanilla]\np = 0.1\n",
        "vanilla02": "\n[vanilla]\np = 0.2\n",
        "layerdrop": "\n[layerdrop]\np = 0.2\n",
        "attn_layerdrop": "\n[attn_layerdrop]\np = 0.2\n",
    }
    paths = []
    for stem, extra in specs.items():
        method = "vanilla" if stem.startswith("vanilla") else stem
        path = tmp_path / f"{stem}.ini"
        path.write_text(f"[run]\nmethod = {method}\nseed = 41\nepochs = 4\n"
                        + shared + extra)
        paths.append(str(path))
    out = tmp_path / "table"
    assert cli_main(["compare", *paths, "--seeds", "2", "--seed", "41",
                     "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [row["label"].split(":")[0] for row in summary] == list(specs)
    for row in summary:
        assert np.isfinite(row["mean_dev_accuracy"])
        assert 0.0 <= row["mean_dev_accuracy"] <= 1.0
        assert len(row["runs"]) == 2
    table = ", ".join(f"{row['label'].split(':')[0]} "
                      f"{row['mean_dev_accuracy']:.3f}" for row in summary)
    _report(10, f"fairness-checked table over 2 seeds: {table}")
