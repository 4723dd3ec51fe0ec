"""The stacked path against the per-sequence one, bit for bit.

models.task_forward / task_backward and attention run a chunk of sequences
as one (B, L, d) stack, and the generator samples a step's decisions and
differentiates them at the window's update the same way; conftest keeps the
per-sequence path they replaced.
Every comparison here is exact, on the bytes, so a reordered sum or a
different BLAS call shows as a failure, not as a tolerance."""

import numpy as np
import pytest

from attendout import policygrad, ptree, trainer
from attendout.attention import MaskMatrix, MaskMode, MaskStack, attn_backward, attn_forward
from attendout.config import parse_config_text
from attendout.models import (
    GeneratorConfig,
    MaskDecision,
    ModelConfig,
    gnet_sample_masks,
    init_generator,
    init_task_model,
    task_backward,
    task_forward,
)
from attendout.numkernel import RngState
from attendout.policygrad import Baseline, compute_rewards, reinforce_update
from attendout.regularizers import vanilla_attention_mask
from attendout.tasks import gen_majority_token, split
from attendout.trainer import BatchStream, evaluate, optimizer_state
from conftest import (
    attn_backward_sequence,
    attn_forward_sequence,
    evaluate_sequence,
    gnet_logprob_backward_reference,
    gnet_sample_masks_reference,
    rand_attention,
    task_backward_sequence,
    task_forward_sequence,
    update_on_batch_sequence,
)

# the shipped shape: 16 tokens, width 32, two heads
PLAIN = ModelConfig(vocab_size=12, max_len=16, num_layers=2, d_model=32, d_ff=64,
                    num_heads=2, num_classes=2)
L = PLAIN.max_len


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _params(seed=3):
    params = init_task_model(PLAIN, seed)
    # larger weights than the init, so every block visibly moves the logits
    params.flat[...] += RngState(seed).derive("scale").normal_array(params.flat.shape) * 0.1
    return params


def _batch(rows, seed=1):
    data = gen_majority_token(200, L, PLAIN.vocab_size, seed)
    return data.take(np.arange(rows))


def _drop_bits(seed, p=0.3, dead_row=None):
    bits = (RngState(seed).derive("bits").uniform_array(L * L).reshape(L, L) < p)
    bits = bits.astype(np.uint8)
    if dead_row is not None:
        bits[dead_row] = 1
    return bits


def _escalating_masks(rows, seed=5):
    """SCORES masks per item and layer; in layer 0 every third item has a
    fully dropped row and escalates to the constant path."""
    return [[MaskMatrix.from_drop_bits(_drop_bits(seed + 7 * i + layer,
                                                  dead_row=3 if layer == 0 and i % 3 == 1
                                                  else None))
             for layer in range(PLAIN.num_layers)]
            for i in range(rows)]


def _step_both(params, batch, item_masks=None, skips=None):
    """One optimizer step on two copies of params, by the trainer and by the
    per-sequence reference; every buffer the step writes must agree."""
    ours, ref = ptree.copy_tree(params), ptree.copy_tree(params)
    opt, opt_ref = optimizer_state(ours, "adam"), optimizer_state(ref, "adam")
    loss = trainer._update_on_batch(ours, batch, 0.01, opt, item_masks, skips)
    loss_ref = update_on_batch_sequence(ref, batch, 0.01, opt_ref, item_masks, skips)
    assert _same(loss, loss_ref)
    assert _same(opt.grads.flat, opt_ref.grads.flat)
    assert _same(ours.flat, ref.flat)
    assert _same(opt.m, opt_ref.m) and _same(opt.v, opt_ref.v)
    assert np.any(opt.grads.flat != 0)


@pytest.fixture
def chunk(monkeypatch):
    """Fix the trainer's rows per chunk to the value given."""
    def set_rows(rows):
        monkeypatch.setattr(trainer, "chunk_rows", lambda config, length: rows)
    return set_rows


# ---------------------------------------------------------------------------
# attention and the task model on a stack
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("queries", [None, 1])
@pytest.mark.parametrize("kind", ["none", "scores", "escalated", "weights_rescale", "mixed"])
def test_attention_on_a_stack_matches_each_sequence(kind, queries):
    params = rand_attention(11, d=8, heads=2)
    rng = RngState(12).derive("x")
    x = rng.normal_array((5, 6, 8))
    q = 6 if queries is None else queries
    dy = rng.normal_array((5, q, 8))
    bits = [(RngState(13 + i).uniform_array(36).reshape(6, 6) < 0.4).astype(np.uint8)
            for i in range(5)]
    if kind in ("escalated", "mixed"):
        bits[1][2] = 1
        bits[4][0] = 1
    masks = {
        "none": [None] * 5,
        "scores": [MaskMatrix.from_drop_bits(b) for b in bits[:1] * 5],
        "escalated": [MaskMatrix.from_drop_bits(b) for b in bits],
        "weights_rescale": [MaskMatrix.weights_from_drop_bits(b, 1 / 0.7) for b in bits],
        "mixed": [MaskMatrix.from_drop_bits(bits[0]), MaskMatrix.from_drop_bits(bits[1]),
                  None, MaskMatrix.weights_from_drop_bits(bits[3]),
                  MaskMatrix.weights_from_drop_bits(bits[4], 1 / 0.7)],
    }[kind]
    y, cache = attn_forward(x, params, MaskStack.stack(masks), queries=queries)
    grads = ptree.zeros_like(params)
    dx = attn_backward(cache, dy, grads)

    ref_grads = ptree.zeros_like(params)
    for i, mask in enumerate(masks):
        y_i, cache_i = attn_forward_sequence(x[i], params, mask, queries=queries)
        dx_i = attn_backward_sequence(cache_i, dy[i], ref_grads)
        assert _same(y[i], y_i)
        assert _same(dx[i], dx_i)
    assert _same(grads.flat, ref_grads.flat)


def test_a_stack_of_scores_items_with_escalated_ones_reports_scores():
    masks = _escalating_masks(4)
    stack = MaskStack.stack([item[0] for item in masks])
    assert stack.mode is MaskMode.SCORES
    assert [(items.tolist(), mode) for items, mode, _ in stack.paths] == [
        ([0, 2, 3], MaskMode.SCORES), ([1], MaskMode.ALL_DROPPED)]
    assert stack.drop.shape == (4, L, L) and not stack.drop[1].any()
    assert MaskStack.stack([None] * 3) is None
    all_dropped = MaskStack.stack([MaskMatrix.all_dropped()] * 3)
    assert all_dropped.mode is MaskMode.ALL_DROPPED and all_dropped.drop is None


@pytest.mark.parametrize("skip", [(0, 0), (1, 0), (0, 1), (1, 1)], ids=str)
def test_task_model_on_a_stack_matches_each_sequence(skip):
    params = _params()
    batch = _batch(6)
    item_masks = _escalating_masks(6)
    masks = [MaskStack.stack([item[layer] for item in item_masks]) for layer in range(2)]
    dlogits = RngState(21).normal_array((6, 1, 2))
    logits, cache = task_forward(params, batch.tokens, masks, np.array(skip))
    grads = ptree.zeros_like(params)
    task_backward(cache, dlogits, grads)

    ref_grads = ptree.zeros_like(params)
    for i in range(6):
        logits_i, cache_i = task_forward_sequence(params, batch.tokens[i], item_masks[i],
                                                  np.array(skip))
        task_backward_sequence(cache_i, dlogits[i], ref_grads)
        assert _same(logits[i], logits_i)
    assert _same(grads.flat, ref_grads.flat)


# ---------------------------------------------------------------------------
# the training step
# ---------------------------------------------------------------------------


def test_the_epochs_short_last_batch():
    full = gen_majority_token(1000, L, PLAIN.vocab_size, 1)
    train_ds, _, _ = split(full, (0.5, 0.3, 0.2), 1)
    stream = BatchStream(train_ds, 8, 1, RngState(1).derive("data"))
    batches = [item[2] for item in iter(stream.next, None)]
    assert len(train_ds) == 500 and len(batches[-1]) == 4
    _step_both(_params(), batches[-1])


@pytest.mark.parametrize("rows", [4, 8])
def test_a_chunk_mixing_escalated_and_scores_items(chunk, rows):
    chunk(rows)
    _step_both(_params(), _batch(8), _escalating_masks(8))


@pytest.mark.parametrize("rows", [3, 8])
def test_weights_mode_with_rescale(chunk, rows):
    chunk(rows)
    rng = RngState(31).derive("masks")
    masks = [[vanilla_attention_mask(L, 0.3, rng, "weights", rescale=True) for _ in range(2)]
             for _ in range(8)]
    assert masks[0][0].rescale == pytest.approx(1 / 0.7)
    _step_both(_params(), _batch(8), masks)


@pytest.mark.parametrize("rows", [2, 8])
def test_a_whole_batch_all_dropped_mask_on_the_folded_last_block(chunk, rows):
    chunk(rows)
    layer_masks = [None, MaskMatrix.all_dropped()]
    _step_both(_params(), _batch(8), [layer_masks] * 8)
    _step_both(_params(), _batch(8), [layer_masks] * 8, np.array([1, 0]))


@pytest.mark.parametrize("rows", [3, 8])
def test_layerdrop_with_every_block_skipped(chunk, rows):
    chunk(rows)
    _step_both(_params(), _batch(8), skips=np.array([1, 1]))


@pytest.mark.parametrize("rows", range(1, 9))
def test_every_chunk_size_gives_the_per_sequence_bits(chunk, rows):
    chunk(rows)
    bits = _drop_bits(41)
    weights = MaskMatrix.weights_from_drop_bits(bits, 1 / 0.7)
    item_masks = [
        [None, MaskMatrix.from_drop_bits(bits)],
        [weights, MaskMatrix.all_dropped()],
        [MaskMatrix.all_dropped(), MaskMatrix.weights_from_drop_bits(bits)],
        [MaskMatrix.from_drop_bits(_drop_bits(42, dead_row=0)), None],
    ] * 2
    _step_both(_params(), _batch(8), item_masks)
    _step_both(_params(), _batch(8), _escalating_masks(8))
    samples = _batch(37, seed=2)
    assert evaluate(_params(), samples) == evaluate_sequence(_params(), samples)


# ---------------------------------------------------------------------------
# the generator on a stack
# ---------------------------------------------------------------------------

GEN = GeneratorConfig(vocab_size=PLAIN.vocab_size, dim=16, tau=1.3)


def _generator(seed=5):
    g = init_generator(GEN, seed)
    # larger weights than the init, so the drop probabilities spread
    g.flat[...] += RngState(seed).derive("scale").normal_array(g.flat.shape) * 0.3
    return g


def _window_tokens(rows, seed=6):
    """rows sequences over the vocabulary's ids 1..8 only, so the token
    embedding rows 0, 9, 10 and 11 get no gradient from any decision."""
    return 1 + (RngState(seed).derive("tokens").integers(np.full(rows * L, 8))
                .astype(np.int64).reshape(rows, L))


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 3, 8])
def test_one_sampling_call_per_stack_matches_a_call_per_row(rows, layers):
    g, tokens = _generator(), _window_tokens(rows)
    rng, ref_rng = RngState(7).derive("policy"), RngState(7).derive("policy")
    for _ in range(2):
        d = gnet_sample_masks(g, tokens, layers, rng)
        refs = [gnet_sample_masks_reference(g, row, layers, ref_rng) for row in tokens]
        assert _same(d.masks, np.stack([np.stack(r.masks) for r in refs]))
        assert _same(d.layer_mean_prob, np.stack([r.layer_mean_prob for r in refs]))
        assert rng.counter == ref_rng.counter
    assert d.masks.shape == (rows, layers, L, L) and d.masks.any() and not d.masks.all()


def _per_decision_update(g, tokens, refs, advantage, lr):
    """The generator and total after the update by a fresh tree per decision,
    each scaled into a zeroed total in decision order by add_scaled."""
    expected, total = ptree.copy_tree(g), ptree.zeros_like(g)
    for row, ref in zip(tokens, refs):
        grad = ptree.zeros_like(g)
        gnet_logprob_backward_reference(g, row, ref, grad)
        ptree.add_scaled(total, grad, advantage)
    ptree.add_scaled(expected, total, lr)
    return expected, total


@pytest.mark.parametrize("scores,baseline", [((0.75, 0.5), 0.25), ((0.5, 0.75), 0.25),
                                             ((0.75, 0.5), 1.0)],
                         ids=["win", "loss", "zero_advantage"])
@pytest.mark.parametrize("rows", [1, 3, 8, 20])
def test_the_window_update_matches_the_per_decision_reference(rows, scores, baseline):
    # 20 decisions in stacks of `rows` (the last one short unless rows
    # divides 20): one stacked backward per stack into per-decision rows,
    # added into a zeroed total in decision order, equals one fresh tree
    # per decision, to the byte and to the sign of each zero
    decisions, layers, lr = 20, 2, 0.4
    g, tokens = _generator(), _window_tokens(decisions)
    rng = RngState(8).derive("policy")
    refs = [gnet_sample_masks_reference(g, row, layers, rng) for row in tokens]
    window = [(tokens[i:i + rows],
               MaskDecision(np.stack([np.stack(r.masks) for r in refs[i:i + rows]]),
                            np.stack([r.layer_mean_prob for r in refs[i:i + rows]])))
              for i in range(0, decisions, rows)]
    rewards, baseline = compute_rewards(*scores), Baseline(0.9, baseline, True)
    advantage = rewards.reward - baseline.value
    expected, expected_total = _per_decision_update(g, tokens, refs, advantage, lr)
    first = ptree.zeros_like(g)
    gnet_logprob_backward_reference(g, tokens[0], refs[0], first)

    total = ptree.zeros_like(g)
    total.flat[...] = np.nan  # whatever the buffer held is overwritten
    before = g.flat.copy()
    reinforce_update(g, window, rewards, baseline, lr, total)
    if advantage == 0.0:
        assert _same(g.flat, before)
        return
    assert _same(g.flat, expected.flat) and not _same(g.flat, before)
    assert _same(total.flat, expected_total.flat)
    # the untouched embedding rows: a loss scales their zero gradient to
    # -0.0, which a sum started from the first scaled row would keep
    unused = total.token_embedding[[0, 9, 10, 11]]
    assert np.all(unused == 0.0) and not np.signbit(unused).any()
    assert np.signbit(advantage * first.token_embedding[0]).all() == (advantage < 0)


def test_the_generator_is_unchanged_from_a_windows_first_draw_to_its_update(monkeypatch):
    # the invariant the per-decision stale check guarded: the update
    # recomputes the scores, which must be those the bits were drawn under;
    # and one stacked backward runs per step of a window that moves it
    cfg = parse_config_text(TINY.format(method="attendout") + "dropout_step = 2\ngnet_lr = 0.5\n")
    draws, backwards, updates = [], [], []
    sample, backward, update = (trainer.gnet_sample_masks, policygrad.gnet_logprob_backward,
                                trainer.reinforce_update)

    def recording_sample(gparams, *args):
        draws.append(gparams.flat.copy())
        return sample(gparams, *args)

    def counting_backward(*args):
        backwards.append(1)
        return backward(*args)

    def recording_update(gparams, *args):
        start, calls = gparams.flat.copy(), len(backwards)
        update(gparams, *args)
        updates.append((len(draws), start, len(backwards) - calls,
                        not np.array_equal(gparams.flat, start)))

    monkeypatch.setattr(trainer, "gnet_sample_masks", recording_sample)
    monkeypatch.setattr(policygrad, "gnet_logprob_backward", counting_backward)
    monkeypatch.setattr(trainer, "reinforce_update", recording_update)
    trainer.train(cfg)
    assert len(updates) == len(draws) // cfg.dropout_step
    assert sum(moved for *_, moved in updates) >= 2
    for drawn, start, calls, moved in updates:
        for flat in draws[drawn - cfg.dropout_step:drawn]:
            assert _same(flat, start)
        assert calls == (cfg.dropout_step if moved else 0)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

TINY = """
[run]
method = {method}
seed = 4
epochs = 2

[data]
task = majority_token
n = 60
seq_len = 8
vocab = 6

[model]
layers = 2
d_model = 8
d_ff = 16
heads = 2

[optimizer]
algo = adam
lr = 0.01
batch_size = 6

[{method}]
"""

METHODS = {
    "none": ("none", ""),
    "vanilla": ("vanilla", "p = 0.2\nmode = scores\n"),
    "vanilla_weights": ("vanilla", "p = 0.2\nmode = weights\nrescale = true\n"),
    "layerdrop": ("layerdrop", "p = 0.5\n"),
    "attn_layerdrop": ("attn_layerdrop", "p = 0.5\n"),
    "scheduled": ("scheduled", "p0 = 0.6\nslope = -0.01, -0.02\n"),
    "attendout": ("attendout", "dropout_step = 2\ngnet_lr = 0.5\n"),
}


@pytest.mark.parametrize("rows", [None, 4], ids=["rule", "4rows"])
@pytest.mark.parametrize("case", sorted(METHODS))
def test_a_tiny_run_matches_the_per_sequence_run(case, rows, monkeypatch):
    method, section = METHODS[case]
    cfg = parse_config_text(TINY.format(method=method).replace("\n[none]\n", "\n") + section)
    if rows is not None:
        monkeypatch.setattr(trainer, "chunk_rows", lambda config, length: rows)
    result = trainer.train(cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "_update_on_batch", update_on_batch_sequence)
        patch.setattr(trainer, "evaluate", evaluate_sequence)
        patch.setattr(trainer, "gnet_sample_masks", gnet_sample_masks_reference)
        patch.setattr(policygrad, "gnet_logprob_backward", gnet_logprob_backward_reference)
        reference = trainer.train(cfg)
    assert result.metrics == reference.metrics
    assert result.mask_trace == reference.mask_trace
    assert result.dev_accuracy == reference.dev_accuracy
    assert result.extra == reference.extra
    assert sorted(result.models) == sorted(reference.models)
    for name, model in result.models.items():
        assert _same(model.flat, reference.models[name].flat), name
