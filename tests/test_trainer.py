import math

import numpy as np
import pytest

from attendout import ptree, trainer
from attendout.attention import AttentionParams, MaskMatrix
from attendout.config import parse_config_text
from attendout.models import (
    GeneratorParams,
    ModelConfig,
    init_task_model,
    task_backward,
    task_forward,
)
from attendout.numkernel import (
    ContractViolation,
    DivergenceError,
    RngState,
    cross_entropy_logits,
)
from attendout.tasks import gen_majority_token, split
from attendout.trainer import (
    AttendOutGame,
    BatchStream,
    OptimizerState,
    dropout_step,
    evaluate,
    optimizer_step,
    sync_models,
    train,
)
from attendout.policygrad import Baseline

BASE_CONFIG = """
[run]
method = {method}
seed = {seed}
epochs = {epochs}

[data]
task = majority_token
n = 120
seq_len = 10
vocab = 8
train_fraction = 0.5
dev_fraction = 0.3
test_fraction = 0.2

[model]
layers = 2
d_model = 16
d_ff = 32
heads = 2

[optimizer]
algo = adam
lr = 0.003
batch_size = 8
{extra}
"""

ATTENDOUT_EXTRA = """
[attendout]
dropout_step = {T}
gnet_lr = 0.3
"""


def _cfg(method="none", seed=1, epochs=2, extra=""):
    return parse_config_text(BASE_CONFIG.format(
        method=method, seed=seed, epochs=epochs, extra=extra))


def _attendout_cfg(seed=1, epochs=2, T=3):
    return _cfg("attendout", seed, epochs, ATTENDOUT_EXTRA.format(T=T))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def _scalar_params():
    cfg = ModelConfig(vocab_size=2, max_len=1, num_layers=1, d_model=2,
                      d_ff=2, num_heads=1, num_classes=2)
    return init_task_model(cfg, 0)


def test_optimizer_zero_lr_is_identity():
    params = _scalar_params()
    before = ptree.copy_tree(params)
    grads = ptree.copy_tree(params)
    optimizer_step(params, grads, 0.0, OptimizerState("sgd"))
    assert ptree.trees_equal(params, before)


def test_optimizer_sgd_step():
    params = _scalar_params()
    grads = ptree.zeros_like(params)
    grads.head_b[0] = 1.0
    optimizer_step(params, grads, 0.1, OptimizerState("sgd"))
    assert params.head_b[0] == pytest.approx(-0.1)


def test_optimizer_adam_converges_on_quadratic():
    params = _scalar_params()
    params.head_b[...] = [1.0, -2.0]
    state = OptimizerState("adam")
    for _ in range(100):
        grads = ptree.zeros_like(params)
        grads.head_b[...] = params.head_b  # grad of 0.5 * theta^2
        optimizer_step(params, grads, 0.08, state)
    assert np.abs(params.head_b).max() < 1e-2


def test_optimizer_momentum_accumulates():
    params = _scalar_params()
    state = OptimizerState("sgd", momentum=0.9)
    grads = ptree.zeros_like(params)
    grads.head_b[0] = 1.0
    optimizer_step(params, grads, 0.1, state)
    optimizer_step(params, grads, 0.1, state)
    # velocity after two steps: 1, then 1.9
    assert params.head_b[0] == pytest.approx(-0.1 - 0.19)


def test_optimizer_rejects_nonfinite_gradient():
    params = _scalar_params()
    grads = ptree.zeros_like(params)
    grads.head_w[0, 0] = float("nan")
    with pytest.raises(DivergenceError) as err:
        optimizer_step(params, grads, 0.1, OptimizerState("sgd"))
    assert "head_w" in str(err.value)


# ---------------------------------------------------------------------------
# one gradient buffer per batch
# ---------------------------------------------------------------------------

GRAD_CFG = ModelConfig(vocab_size=6, max_len=6, num_layers=3, d_model=8,
                       d_ff=16, num_heads=2, num_classes=3)
# every sequence repeats tokens, so the token-embedding scatter sums rows
GRAD_BATCH = [(np.array([0, 3, 3, 5, 3, 1]), 1), (np.array([0, 2, 2, 2, 4, 2]), 2),
              (np.array([0, 5, 1, 5, 1, 5]), 0)]
GRAD_SKIPS = np.array([0, 0, 1])


def _grad_masks():
    """Per-item layer masks covering all four modes; layer 2 is skipped."""
    bits = (RngState(11).uniform_array(36).reshape(6, 6) < 0.3).astype(np.uint8)
    bits[:, 0] = 0
    keep = 1.0 - bits
    return [
        [None, MaskMatrix.from_drop_bits(bits), None],
        [MaskMatrix.weights(keep, rescale=1 / 0.7), MaskMatrix.all_dropped(), None],
        [MaskMatrix.all_dropped(), MaskMatrix.weights(keep), None],
    ]


def test_batch_gradient_buffer_matches_per_item_trees_bitwise(monkeypatch):
    params = init_task_model(GRAD_CFG, 9)
    item_masks = _grad_masks()
    seen = []  # the buffer handed to the optimizer, which is stubbed out
    monkeypatch.setattr(trainer, "optimizer_step",
                        lambda p, grads, lr, state: seen.append(grads))
    trainer._update_on_batch(params, GRAD_BATCH, 0.01, OptimizerState("adam"),
                             item_masks, GRAD_SKIPS)
    [batch_grads] = seen

    # reference: a fresh zeroed tree per item, summed in item order
    logits, caches = [], []
    for (tokens, _), masks in zip(GRAD_BATCH, item_masks):
        lg, cache = task_forward(params, tokens, masks, GRAD_SKIPS)
        logits.append(lg[0])
        caches.append(cache)
    _, dlogits = cross_entropy_logits(np.stack(logits), [label for _, label in GRAD_BATCH])
    per_item = []
    for i, cache in enumerate(caches):
        g = ptree.zeros_like(params)
        task_backward(cache, dlogits[i:i + 1], g)
        per_item.append(g)
    reference = per_item[0]
    for g in per_item[1:]:
        ptree.add_scaled(reference, g, 1.0)

    assert np.any(batch_grads.layers[0].attn.w_q != 0)
    assert not batch_grads.layers[2].flat.any()
    assert np.array_equal(batch_grads.flat, reference.flat)


def test_update_on_batch_allocates_one_gradient_tree(monkeypatch):
    params = init_task_model(GRAD_CFG, 9)
    calls = []
    zeros_like = ptree.zeros_like

    def counting(tree):
        calls.append(type(tree))
        return zeros_like(tree)
    monkeypatch.setattr(ptree, "zeros_like", counting)
    loss = trainer._update_on_batch(params, GRAD_BATCH, 0.01, OptimizerState("adam"),
                                    _grad_masks(), GRAD_SKIPS)
    assert np.isfinite(loss)
    assert calls == [type(params)]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_constant_model_on_balanced_set():
    cfg = ModelConfig(vocab_size=8, max_len=10, num_layers=1, d_model=8,
                      d_ff=16, num_heads=1, num_classes=2)
    params = init_task_model(cfg, 1)
    params.head_w[...] = 0.0
    params.head_b[...] = 0.0  # logits identical, argmax always class 0
    ds = gen_majority_token(40, 10, 8, seed=1)
    assert evaluate(params, ds.examples) == 0.5


def test_evaluate_memorizing_model_hits_one():
    cfg = _cfg("none", seed=3, epochs=40)
    result = train(cfg)
    full = gen_majority_token(cfg.data_n, cfg.seq_len, cfg.vocab, cfg.seed)
    train_ds, _, _ = split(full, (0.5, 0.3, 0.2), cfg.seed)
    assert evaluate(result.models["model"], train_ds.examples) == 1.0


def test_evaluate_matches_independent_recount():
    cfg = ModelConfig(vocab_size=8, max_len=10, num_layers=1, d_model=8,
                      d_ff=16, num_heads=2, num_classes=2)
    params = init_task_model(cfg, 5)
    ds = gen_majority_token(30, 10, 8, seed=2)
    correct = 0
    for tokens, label in ds.examples:
        logits, _ = task_forward(params, tokens)
        correct += int(int(np.argmax(logits[0])) == label)
    assert evaluate(params, ds.examples) == correct / 30


def test_evaluate_rejects_empty():
    params = _scalar_params()
    with pytest.raises(ContractViolation):
        evaluate(params, [])


# ---------------------------------------------------------------------------
# sync
# ---------------------------------------------------------------------------


def test_sync_copy_invariant():
    cfg = ModelConfig(vocab_size=6, max_len=4, num_layers=1, d_model=8,
                      d_ff=16, num_heads=1, num_classes=2)
    d = init_task_model(cfg, 1)
    a = init_task_model(cfg, 2)
    rng = RngState(3)
    for _ in range(10):
        d2, a2, source = sync_models(d, a, 0.4, 0.6, rng)
        assert ptree.trees_equal(d2, a2)
        assert source in ("defender", "attacker")
        origin = a if source == "attacker" else d
        assert ptree.trees_equal(d2, origin)


def test_sync_tie_is_a_coin_flip():
    cfg = ModelConfig(vocab_size=6, max_len=4, num_layers=1, d_model=8,
                      d_ff=16, num_heads=1, num_classes=2)
    d = init_task_model(cfg, 1)
    a = init_task_model(cfg, 2)
    rng = RngState(4).derive("coin")
    n = 10_000
    picks = sum(
        sync_models(d, a, 0.7, 0.7, rng)[2] == "attacker" for _ in range(n)
    )
    sigma = math.sqrt(0.25 / n)
    assert abs(picks / n - 0.5) <= 3 * sigma


def test_sync_favors_better_model_by_sigmoid():
    cfg = ModelConfig(vocab_size=6, max_len=4, num_layers=1, d_model=8,
                      d_ff=16, num_heads=1, num_classes=2)
    d = init_task_model(cfg, 1)
    a = init_task_model(cfg, 2)
    rng = RngState(5).derive("coin")
    n = 10_000
    picks = sum(
        sync_models(d, a, 0.0, 1.0, rng)[2] == "attacker" for _ in range(n)
    )
    p = 1 / (1 + math.exp(-1.0))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(picks / n - p) <= 3 * sigma


def test_sync_rejects_structural_mismatch():
    small = ModelConfig(vocab_size=6, max_len=4, num_layers=1, d_model=8,
                        d_ff=16, num_heads=1, num_classes=2)
    big = ModelConfig(vocab_size=6, max_len=4, num_layers=2, d_model=8,
                      d_ff=16, num_heads=1, num_classes=2)
    with pytest.raises(ContractViolation):
        sync_models(init_task_model(small, 1), init_task_model(big, 2),
                    0.5, 0.5, RngState(0))


# ---------------------------------------------------------------------------
# batch stream
# ---------------------------------------------------------------------------


def test_batch_stream_exact_step_count():
    examples = [(np.array([0, i % 5]), i % 2) for i in range(10)]
    stream = BatchStream(examples, batch_size=4, epochs=3, rng=RngState(1))
    assert stream.steps_per_epoch == 3
    seen = []
    while True:
        item = stream.next()
        if item is None:
            break
        seen.append(item)
    assert len(seen) == 9
    assert [epoch for _, epoch, _ in seen] == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_batch_stream_epoch_covers_dataset():
    examples = [(np.array([0, i]), 0) for i in range(10)]
    stream = BatchStream(examples, batch_size=4, epochs=1, rng=RngState(2))
    ids = []
    while (item := stream.next()) is not None:
        ids += [int(t[1]) for t, _ in item[2]]
    assert sorted(ids) == list(range(10))


def test_batch_stream_deterministic():
    examples = [(np.array([0, i]), 0) for i in range(9)]
    runs = []
    for _ in range(2):
        stream = BatchStream(examples, 3, 2, RngState(7).derive("data"))
        order = []
        while (item := stream.next()) is not None:
            order += [int(t[1]) for t, _ in item[2]]
        runs.append(order)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# dropout step
# ---------------------------------------------------------------------------


def _never_drop_generator(dim=8, vocab=8):
    """Scores pinned far negative for every token pair: drop-logit -> -inf."""
    scale = 3.0
    return GeneratorParams(
        token_embedding=np.ones((vocab, dim)),
        attn=AttentionParams(
            scale * np.eye(dim), -scale * np.eye(dim),
            np.eye(dim), np.eye(dim), num_heads=1,
        ),
        tau=1.0,
    )


def _fresh_game(cfg, generator=None, seed=None):
    seed = cfg.seed if seed is None else seed
    full = gen_majority_token(cfg.data_n, cfg.seq_len, cfg.vocab, seed)
    train_ds, dev_ds, _ = split(full, (0.5, 0.3, 0.2), seed)
    mcfg = ModelConfig(cfg.vocab, cfg.seq_len, cfg.layers, cfg.d_model,
                       cfg.d_ff, cfg.heads, 2)
    defender = init_task_model(mcfg, seed)
    root = RngState(seed)
    game = AttendOutGame(
        defender=defender,
        attacker=ptree.copy_tree(defender),
        generator=generator if generator is not None else _never_drop_generator(
            dim=cfg.d_model // 2, vocab=cfg.vocab),
        opt_defender=OptimizerState(cfg.opt_algo, cfg.momentum),
        opt_attacker=OptimizerState(cfg.opt_algo, cfg.momentum),
        baseline=Baseline(decay=0.9),
        eval_pool=list(dev_ds.examples),
        policy_rng=root.derive("policy"),
        eval_rng=root.derive("eval"),
        sync_rng=root.derive("sync"),
    )
    stream = BatchStream(train_ds.examples, cfg.batch_size, cfg.epochs,
                         root.derive("data"))
    return game, stream


def test_dropout_step_never_drop_policy_is_degenerate():
    cfg = _attendout_cfg(seed=2, epochs=1, T=3)
    game, stream = _fresh_game(cfg)
    g_before = ptree.copy_tree(game.generator)
    rows = dropout_step(game, stream, cfg)
    assert len(rows) == 3
    for row in rows:
        assert row["loss_D"] == row["loss_A"]
    boundary = rows[-1]
    assert boundary["eval_D"] == boundary["eval_A"]
    assert boundary["reward_mean"] == 0.0
    assert ptree.trees_equal(game.defender, game.attacker)
    # a zero advantage leaves the generator untouched bitwise
    assert ptree.trees_equal(game.generator, g_before)
    assert max(boundary["drop_prob"]) <= 1e-9


def test_dropout_step_unit_window_counts():
    cfg = parse_config_text(BASE_CONFIG.format(
        method="attendout", seed=3, epochs=1,
        extra=ATTENDOUT_EXTRA.format(T=1)).replace("n = 120", "n = 16")
        .replace("batch_size = 8", "batch_size = 8"))
    # 16 examples, train fraction 0.5 -> 8 train examples -> one batch
    game, stream = _fresh_game(cfg)
    assert stream.total_steps == 1
    rows = dropout_step(game, stream, cfg)
    assert len(rows) == 1
    assert "eval_D" in rows[0] and "eval_A" in rows[0]
    assert game.windows_done == 1
    assert game.decisions == []  # released


def test_dropout_step_requires_fresh_ledger():
    cfg = _attendout_cfg(seed=4, epochs=1, T=2)
    game, stream = _fresh_game(cfg)
    game.decisions.append(("junk", None))
    with pytest.raises(ContractViolation):
        dropout_step(game, stream, cfg)


def test_dropout_step_partial_window_skips_generator_update():
    # T beyond the 8-step budget; the 36-example dev pool still covers it
    cfg = _attendout_cfg(seed=5, epochs=1, T=20)
    game, stream = _fresh_game(cfg)
    rows = dropout_step(game, stream, cfg)
    assert 0 < len(rows) < 20
    assert game.windows_done == 0
    assert all("eval_D" not in row for row in rows)
    assert game.decisions == []  # cache still released


def test_dropout_step_clears_decisions_after_full_and_partial_windows():
    cfg = _attendout_cfg(seed=5, epochs=1, T=3)
    game, stream = _fresh_game(cfg)
    assert stream.total_steps == 8  # windows of 3, 3 and a partial 2
    window_sizes = []
    while stream.remaining > 0:
        window_sizes.append(len(dropout_step(game, stream, cfg)))
        assert game.decisions == []
    assert window_sizes == [3, 3, 2]
    assert game.windows_done == 2


# ---------------------------------------------------------------------------
# train()
# ---------------------------------------------------------------------------


def test_train_zero_epochs_returns_initialized_model():
    cfg = _cfg("none", seed=6, epochs=0)
    result = train(cfg)
    assert result.metrics == []
    mcfg = ModelConfig(cfg.vocab, cfg.seq_len, cfg.layers, cfg.d_model,
                       cfg.d_ff, cfg.heads, 2)
    assert ptree.trees_equal(result.models["model"], init_task_model(mcfg, 6))


def test_train_none_learns_separable_task():
    cfg = _cfg("none", seed=7, epochs=3)
    result = train(cfg)
    full = gen_majority_token(cfg.data_n, cfg.seq_len, cfg.vocab, cfg.seed)
    train_ds, _, _ = split(full, (0.5, 0.3, 0.2), cfg.seed)
    assert evaluate(result.models["model"], train_ds.examples) >= 0.95


def test_train_attendout_metrics_structure():
    cfg = _attendout_cfg(seed=8, epochs=2, T=3)
    result = train(cfg)
    total = result.extra["total_steps"]
    boundary_rows = [m for m in result.metrics if "eval_D" in m]
    assert len(boundary_rows) == total // 3 == result.extra["g_updates"]
    for row in boundary_rows:
        assert {"eval_A", "reward_mean", "baseline", "drop_prob"} <= set(row)
        assert all(0.0 <= p <= 1.0 for p in row["drop_prob"])
    assert result.extra["boundary_identical"]
    assert result.extra["cache_empty"]
    # trace reported once per completed window and bounded
    windows = {w for w, _, _ in result.mask_trace}
    assert windows == set(range(total // 3))
    assert all(0.0 <= p <= 1.0 for _, _, p in result.mask_trace)


def test_train_attendout_deterministic_replay():
    results = [train(_attendout_cfg(seed=9, epochs=1, T=2)) for _ in range(2)]
    assert results[0].metrics == results[1].metrics
    assert results[0].mask_trace == results[1].mask_trace
    assert ptree.trees_equal(results[0].models["defender"],
                             results[1].models["defender"])
    assert ptree.trees_equal(results[0].models["generator"],
                             results[1].models["generator"])


def test_train_attendout_with_train_slice_pool():
    extra = """
[attendout]
dropout_step = 2
gnet_lr = 0.3
eval_pool = train_slice
eval_slice_fraction = 0.2
"""
    cfg = _cfg("attendout", seed=10, epochs=1, extra=extra)
    result = train(cfg)
    assert result.extra["g_updates"] >= 1
    # 60 train examples lose a held-out slice of 12: 48 remain -> 6 batches
    assert result.extra["total_steps"] == 6


def test_train_single_model_methods_log_drop_prob():
    for method, extra in (
        ("vanilla", "\n[vanilla]\np = 0.2\n"),
        ("layerdrop", "\n[layerdrop]\np = 0.2\n"),
        ("attn_layerdrop", "\n[attn_layerdrop]\np = 0.2\n"),
        ("scheduled", "\n[scheduled]\np0 = 0.6\nslope = -0.01\n"),
    ):
        cfg = _cfg(method, seed=11, epochs=1, extra=extra)
        result = train(cfg)
        assert np.isfinite(result.dev_accuracy)
        assert all("drop_prob" in row for row in result.metrics)
        assert all(np.isfinite(row["loss_D"]) for row in result.metrics)
        if method == "scheduled":
            # realized p decays along the run and is traced per step
            first = result.metrics[0]["drop_prob"][0]
            last = result.metrics[-1]["drop_prob"][0]
            assert first == 0.6 and last < first
            assert len(result.mask_trace) == len(result.metrics) * cfg.layers


@pytest.mark.parametrize("method, extra", [
    ("vanilla", "\n[vanilla]\np = 0.0\n"),
    ("vanilla", "\n[vanilla]\np = 0.0\nmode = weights\n"),
    ("vanilla", "\n[vanilla]\np = 0.0\nmode = weights\nrescale = true\n"),
    ("layerdrop", "\n[layerdrop]\np = 0.0\n"),
    ("attn_layerdrop", "\n[attn_layerdrop]\np = 0.0\n"),
    ("scheduled", "\n[scheduled]\np0 = 0.0\nslope = 0.0\n"),
], ids=["vanilla_scores", "vanilla_weights", "vanilla_weights_rescale",
        "layerdrop", "attn_layerdrop", "scheduled"])
def test_single_model_methods_at_p_zero_reproduce_plain_training(method, extra):
    # every regularizer's masks reach the model, and at p = 0 they keep
    # every unit, so the loss curve is the unregularized one bit for bit
    plain = train(_cfg("none", seed=4, epochs=1))
    regularized = train(_cfg(method, seed=4, epochs=1, extra=extra))
    assert [row["loss_D"] for row in regularized.metrics] == \
        [row["loss_D"] for row in plain.metrics]
