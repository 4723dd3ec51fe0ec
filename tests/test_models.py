import json
import math

import numpy as np
import pytest

from attendout import numkernel as nk
from attendout import ptree
from attendout.attention import MaskMatrix
from attendout.models import (
    GeneratorConfig,
    ModelConfig,
    decision_logprob,
    gnet_sample_masks,
    gnet_scores,
    init_generator,
    init_task_model,
    load_checkpoint,
    save_checkpoint,
    task_backward,
    task_forward,
)
from attendout.numkernel import cross_entropy_logits
from conftest import (
    gnet_logprob_backward_reference,
    gnet_sample_masks_reference,
    gnet_scores_reference,
    logprob_grad,
    logprob_score_grads_reference,
    max_rel_err,
    tree_finite_diff,
)

SMALL = ModelConfig(vocab_size=11, max_len=8, num_layers=2, d_model=16,
                    d_ff=32, num_heads=2, num_classes=3)
TOKENS = np.array([0, 4, 7, 1, 9, 3, 2, 10])

# Frozen on the first run of this implementation (seed 2024, tokens above).
GOLDEN_LOGITS = [0.08320100433811686, -0.01818330839651125, 0.020302088703690394]


def _from_bits(*bits):
    """Layer masks from per-layer drop bits, built as the attacker's are."""
    return [MaskMatrix.from_drop_bits(b) for b in bits]


def _all_keep(n, length):
    return _from_bits(*[np.zeros((length, length), dtype=np.uint8)] * n)


def _all_drop(n, length):
    return _from_bits(*[np.ones((length, length), dtype=np.uint8)] * n)


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_deterministic_per_seed():
    a = init_task_model(SMALL, 7)
    b = init_task_model(SMALL, 7)
    c = init_task_model(SMALL, 8)
    assert ptree.trees_equal(a, b)
    assert not ptree.trees_equal(a, c)


def test_fresh_model_loss_near_log_c():
    params = init_task_model(SMALL, 3)
    rng = nk.RngState(5)
    losses = []
    for _ in range(64):
        toks = np.array([0] + [1 + rng.randint(10) for _ in range(7)])
        logits, _ = task_forward(params, toks)
        loss, _ = cross_entropy_logits(logits, [rng.randint(3)])
        losses.append(loss)
        assert np.all(np.isfinite(logits))
    assert abs(np.mean(losses) - math.log(3)) <= 0.1


def test_invalid_dimensions_rejected():
    with pytest.raises(nk.ShapeError):
        init_task_model(ModelConfig(8, 8, 1, 10, 16, 3, 2), 0)


# ---------------------------------------------------------------------------
# task forward
# ---------------------------------------------------------------------------


def test_all_keep_masks_bitwise_identical_to_no_masks():
    params = init_task_model(SMALL, 1)
    plain, _ = task_forward(params, TOKENS)
    masked, _ = task_forward(params, TOKENS, layer_masks=_all_keep(2, 8))
    assert np.array_equal(plain, masked)


def test_all_dropped_layers_stay_finite():
    params = init_task_model(SMALL, 1)
    logits, cache = task_forward(params, TOKENS, layer_masks=_all_drop(2, 8))
    assert np.all(np.isfinite(logits))
    # equals the constant-attention route in every layer by construction
    logits2, _ = task_forward(params, TOKENS, layer_masks=[MaskMatrix.all_dropped()] * 2)
    assert np.array_equal(logits, logits2)


def test_golden_logits_regression():
    params = init_task_model(SMALL, 2024)
    logits, _ = task_forward(params, TOKENS)
    assert np.abs(logits[0] - np.array(GOLDEN_LOGITS)).max() <= 1e-12


def test_token_id_validation():
    params = init_task_model(SMALL, 1)
    with pytest.raises(IndexError):
        task_forward(params, np.array([0, 99]))
    with pytest.raises(nk.ShapeError):
        task_forward(params, np.arange(9))  # beyond max_len


def test_layer_mask_count_must_match_layers():
    params = init_task_model(SMALL, 1)
    with pytest.raises(nk.ShapeError):
        task_forward(params, TOKENS, layer_masks=_all_keep(1, 8))
    with pytest.raises(nk.ShapeError):
        task_forward(params, TOKENS, layer_masks=_all_keep(3, 8))


# ---------------------------------------------------------------------------
# task backward
# ---------------------------------------------------------------------------


def test_zero_dlogits_zero_grads():
    params = init_task_model(SMALL, 1)
    _, cache = task_forward(params, TOKENS)
    grads = ptree.zeros_like(params)
    task_backward(cache, np.zeros((1, 3)), grads)
    assert all(np.all(arr == 0) for _, arr in ptree.iter_arrays(grads))


def test_task_gradcheck_small():
    cfg = ModelConfig(vocab_size=9, max_len=6, num_layers=1, d_model=8,
                      d_ff=16, num_heads=2, num_classes=2)
    params = init_task_model(cfg, 5)
    tokens = np.array([0, 3, 8, 2, 5, 1])
    label = [1]
    logits, cache = task_forward(params, tokens)
    _, dlogits = cross_entropy_logits(logits, label)
    grads = ptree.zeros_like(params)
    task_backward(cache, dlogits, grads)

    def objective(p):
        lg, _ = task_forward(p, tokens)
        loss, _ = cross_entropy_logits(lg, label)
        return loss

    fd = tree_finite_diff(params, objective)
    assert max_rel_err(ptree.flatten(grads), fd) <= 1e-4


def test_task_gradcheck_with_masks_and_padding():
    cfg = ModelConfig(vocab_size=9, max_len=6, num_layers=2, d_model=8,
                      d_ff=16, num_heads=1, num_classes=2)
    params = init_task_model(cfg, 6)
    tokens = np.array([0, 3, 8, 2, 5, 1])
    bits = (nk.RngState(7).uniform_array(36).reshape(6, 6) < 0.3).astype(np.uint8)
    bits[:, 0] = 0
    masks = _from_bits(bits, np.zeros((6, 6), dtype=np.uint8))
    dy = nk.RngState(8).normal_array((1, 2))
    _, cache = task_forward(params, tokens, layer_masks=masks)
    grads = ptree.zeros_like(params)
    task_backward(cache, dy, grads)

    def objective(p):
        lg, _ = task_forward(p, tokens, layer_masks=masks)
        return float((dy * lg).sum())

    fd = tree_finite_diff(params, objective)
    assert max_rel_err(ptree.flatten(grads), fd) <= 1e-4


def test_all_dropped_layer_kills_query_key_grads():
    params = init_task_model(SMALL, 1)
    bits = (nk.RngState(3).uniform_array(64).reshape(8, 8) < 0.3).astype(np.uint8)
    _, cache = task_forward(params, TOKENS,
                            layer_masks=_from_bits(bits, np.ones((8, 8), dtype=np.uint8)))
    grads = ptree.zeros_like(params)
    task_backward(cache, np.array([[0.3, -0.2, 0.1]]), grads)
    assert np.all(grads.layers[1].attn.w_q == 0)
    assert np.all(grads.layers[1].attn.w_k == 0)
    assert np.any(grads.layers[0].attn.w_q != 0)


def test_skipped_block_is_identity_and_gradient_free():
    params = init_task_model(SMALL, 4)
    skip = np.array([0, 1])
    logits_skip, cache = task_forward(params, TOKENS, skip_blocks=skip)
    one_layer = ptree.copy_tree(params)
    one_layer.layers = [one_layer.layers[0]]
    one_layer.config = ModelConfig(**{**vars(SMALL), "num_layers": 1})
    logits_one, _ = task_forward(one_layer, TOKENS)
    assert np.array_equal(logits_skip, logits_one)
    grads = ptree.zeros_like(params)
    task_backward(cache, np.array([[1.0, 0.0, -1.0]]), grads)
    assert all(np.all(arr == 0) for _, arr in ptree.iter_arrays(grads.layers[1]))


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

GEN = GeneratorConfig(vocab_size=11, dim=8, tau=1.0)


def test_generator_has_one_shared_group_and_no_ff():
    g = init_generator(GEN, 1)
    names = [name for name, _ in ptree.iter_arrays(g)]
    assert names == ["token_embedding", "attn.w_q", "attn.w_k", "attn.w_v", "attn.w_o"]
    # the parameter count cannot depend on the number of layer decisions
    count = g.flat.size
    for n_layers in (1, 3, 5):
        masks = gnet_sample_masks(g, TOKENS, n_layers, nk.RngState(2))
        assert len(masks.masks) == n_layers
    assert g.flat.size == count


def test_sampling_is_deterministic():
    g = init_generator(GEN, 1)
    d1 = gnet_sample_masks(g, TOKENS, 2, nk.RngState(5).derive("p"))
    d2 = gnet_sample_masks(g, TOKENS, 2, nk.RngState(5).derive("p"))
    assert all(np.array_equal(a, b) for a, b in zip(d1.masks, d2.masks))
    assert d1.logprob == d2.logprob


def test_high_temperature_drop_rate_is_half():
    g = init_generator(GeneratorConfig(11, 8, tau=1e9), 1)
    rng = nk.RngState(3)
    dropped = total = 0
    while total < 50_000:
        d = gnet_sample_masks(g, TOKENS, 2, rng)
        dropped += sum(int(m.sum()) for m in d.masks)
        total += sum(m.size for m in d.masks)
    sigma = math.sqrt(0.25 / total)
    assert abs(dropped / total - 0.5) <= 3 * sigma


def test_logprob_matches_independent_recomputation():
    g = init_generator(GEN, 1)
    rng = nk.RngState(9)
    for _ in range(5):
        d = gnet_sample_masks(g, TOKENS, 2, rng)
        scores, _, _ = gnet_scores(g, TOKENS, 2)
        total = 0.0
        for s, bits in zip(scores, d.masks):
            p = 1 / (1 + np.exp(-s / g.tau))
            total += float(np.where(bits != 0, np.log(p), np.log(1 - p)).sum())
        assert abs(total / (2 * 64) - d.logprob) <= 1e-12


def test_drop_fraction_diagnostics():
    g = init_generator(GEN, 1)
    d = gnet_sample_masks(g, TOKENS, 2, nk.RngState(4))
    for i, m in enumerate(d.masks):
        assert d.layer_drop_fraction[i] == m.sum() / m.size
    assert d.logprob <= 0


def test_expected_drop_rate_tracks_sigmoid():
    g = init_generator(GEN, 2)
    tokens = np.array([1, 5, 9])
    scores, _, _ = gnet_scores(g, tokens, 2)
    pred = np.stack([1 / (1 + np.exp(-s / g.tau)) for s in scores])
    rng = nk.RngState(6)
    counts = np.zeros_like(pred)
    trials = 20_000
    for _ in range(trials):
        d = gnet_sample_masks(g, tokens, 2, rng)
        counts += np.stack(d.masks)
    emp = counts / trials
    picks = nk.RngState(8)
    for _ in range(10):
        layer = picks.randint(2)
        i, j = picks.randint(3), picks.randint(3)
        p = pred[layer, i, j]
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(emp[layer, i, j] - p) <= 3 * sigma + 1e-12


# ---------------------------------------------------------------------------
# generator gradients
# ---------------------------------------------------------------------------


def test_gnet_gradcheck_single_unit():
    g = init_generator(GeneratorConfig(5, 4, tau=1.0), 3)
    tokens = np.array([2])
    d = gnet_sample_masks(g, tokens, 1, nk.RngState(1))
    grads = logprob_grad(g, tokens, d)
    fd = tree_finite_diff(g, lambda p: decision_logprob(p, tokens, d))
    assert max_rel_err(ptree.flatten(grads), fd) <= 1e-4


def test_gnet_gradcheck_stacked():
    g = init_generator(GeneratorConfig(9, 8, tau=1.0), 4)
    tokens = np.array([1, 6, 3])
    d = gnet_sample_masks(g, tokens, 2, nk.RngState(2))
    grads = logprob_grad(g, tokens, d)
    fd = tree_finite_diff(g, lambda p: decision_logprob(p, tokens, d))
    assert max_rel_err(ptree.flatten(grads), fd) <= 1e-4


def test_score_gradient_identities():
    # d logP(1)/ds = (1 - sigmoid) / tau, d logP(0)/ds = -sigmoid / tau;
    # flipping every bit swaps the two branches.
    from attendout.models import _logprob_score_grads

    scores = [nk.RngState(5).normal_array((3, 3))]
    bits = (nk.RngState(6).uniform_array(9).reshape(3, 3) < 0.5).astype(np.uint8)
    tau = 1.3
    sig = 1 / (1 + np.exp(-scores[0] / tau))
    norm = 9
    grads = _logprob_score_grads(scores, [bits], tau)[0]
    expected = np.where(bits == 1, (1 - sig) / tau, -sig / tau) / norm
    assert np.abs(grads - expected).max() <= 1e-15
    flipped = _logprob_score_grads(scores, [1 - bits], tau)[0]
    expected_flip = np.where(bits == 1, -sig / tau, (1 - sig) / tau) / norm
    assert np.abs(flipped - expected_flip).max() <= 1e-15


def test_doubling_tau_with_scores_halves_score_grads():
    # at fixed drop probabilities (scores scaled with tau), the gradient on
    # the scores halves exactly: chain rule through score / tau
    from attendout.models import _logprob_score_grads

    scores = nk.RngState(7).normal_array((2, 2))
    bits = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    g1 = _logprob_score_grads([scores], [bits], 1.0)[0]
    g2 = _logprob_score_grads([2 * scores], [bits], 2.0)[0]
    assert np.abs(g2 - g1 / 2).max() <= 1e-15


def test_stale_decision_detected():
    g1 = init_generator(GEN, 1)
    g2 = init_generator(GEN, 2)
    d = gnet_sample_masks(g1, TOKENS, 2, nk.RngState(3))
    with pytest.raises(nk.ContractViolation):
        logprob_grad(g2, TOKENS, d)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("length", [1, 3, 16])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_stacked_decision_matches_the_per_layer_reference(layers, length):
    # one (N, L, L) draw, mean and gradient against one per layer: the bits,
    # the draws consumed, both diagnostics and every gradient are the same
    # numbers; only the log-probability sum runs in another order
    from attendout.models import _logprob_score_grads

    g = init_generator(GeneratorConfig(vocab_size=11, dim=8, tau=1.3), layers)
    tokens = (np.arange(length) * 7 + 3) % 11
    rng, ref_rng = nk.RngState(21).derive(length), nk.RngState(21).derive(length)
    for _ in range(3):
        d = gnet_sample_masks(g, tokens, layers, rng)
        ref = gnet_sample_masks_reference(g, tokens, layers, ref_rng)
        assert _same_bits(d.masks, np.stack(ref.masks))
        assert rng.counter == ref_rng.counter
        assert _same_bits(d.layer_mean_prob, ref.layer_mean_prob)
        assert _same_bits(d.layer_drop_fraction, ref.layer_drop_fraction)
        assert abs(d.logprob - ref.logprob) <= 1e-12 * abs(ref.logprob)

        scores, _, _ = gnet_scores(g, tokens, layers)
        ref_scores, _ = gnet_scores_reference(g, tokens, layers)
        assert _same_bits(scores, np.stack(ref_scores))
        assert _same_bits(_logprob_score_grads(scores, d.masks, g.tau),
                          np.stack(logprob_score_grads_reference(ref_scores, ref.masks, g.tau)))
        ref_grads = ptree.zeros_like(g)
        gnet_logprob_backward_reference(g, tokens, ref, ref_grads)
        assert _same_bits(logprob_grad(g, tokens, d).flat, ref_grads.flat)


def test_end_to_end_surrogate_gradient():
    # the REINFORCE surrogate logprob * constant through the full stack
    g = init_generator(GeneratorConfig(9, 8, tau=1.0), 11)
    tokens = np.array([1, 6, 3])
    d = gnet_sample_masks(g, tokens, 2, nk.RngState(12))
    constant = -0.73
    grads = logprob_grad(g, tokens, d)
    an = ptree.flatten(grads) * constant
    fd = tree_finite_diff(g, lambda p: constant * decision_logprob(p, tokens, d))
    assert max_rel_err(an, fd) <= 1e-4


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    task = init_task_model(SMALL, 13)
    gen = init_generator(GEN, 13)
    task_path = tmp_path / "task.npz"
    gen_path = tmp_path / "gen.npz"
    save_checkpoint(task_path, task)
    save_checkpoint(gen_path, gen)
    assert ptree.trees_equal(task, load_checkpoint(task_path))
    loaded_gen = load_checkpoint(gen_path)
    assert ptree.trees_equal(gen, loaded_gen)
    assert loaded_gen.tau == gen.tau


def _write_v1(path, kind, meta, arrays):
    """A version-1 checkpoint written without save_checkpoint: a JSON header
    plus one float64 tensor per parameter name."""
    header = json.dumps({"version": 1, "kind": kind, "meta": meta})
    np.savez(path, __header__=np.frombuffer(header.encode(), dtype=np.uint8), **arrays)


def _arrays(params):
    return {name: arr.copy() for name, arr in ptree.iter_arrays(params)}


def test_checkpoint_v1_file_loads_bit_exact(tmp_path):
    task = init_task_model(SMALL, 21)
    _write_v1(tmp_path / "t.npz", "task", vars(SMALL), _arrays(task))
    loaded = load_checkpoint(tmp_path / "t.npz")
    assert ptree.trees_equal(task, loaded)
    for _, arr in ptree.iter_arrays(loaded):
        assert np.shares_memory(arr, loaded.flat)


def test_checkpoint_rejects_unknown_kind(tmp_path):
    gen = init_generator(GEN, 3)
    meta = {"vocab_size": GEN.vocab_size, "dim": GEN.dim, "tau": GEN.tau}
    _write_v1(tmp_path / "g.npz", "policy", meta, _arrays(gen))
    with pytest.raises(nk.ContractViolation, match="kind"):
        load_checkpoint(tmp_path / "g.npz")


def test_checkpoint_rejects_missing_tensor(tmp_path):
    arrays = _arrays(init_task_model(SMALL, 3))
    del arrays["layers.1.ff_b2"]
    _write_v1(tmp_path / "t.npz", "task", vars(SMALL), arrays)
    with pytest.raises(nk.ContractViolation, match="layers.1.ff_b2"):
        load_checkpoint(tmp_path / "t.npz")


def test_checkpoint_rejects_unexpected_tensor(tmp_path):
    arrays = _arrays(init_task_model(SMALL, 3))
    arrays["layers.2.ff_b2"] = np.zeros(SMALL.d_model)
    _write_v1(tmp_path / "t.npz", "task", vars(SMALL), arrays)
    with pytest.raises(nk.ContractViolation, match="layers.2.ff_b2"):
        load_checkpoint(tmp_path / "t.npz")


def test_checkpoint_rejects_broadcastable_shape(tmp_path):
    arrays = _arrays(init_task_model(SMALL, 3))
    # a (d,) row would silently broadcast into the (V, d) embedding
    arrays["token_embedding"] = arrays["token_embedding"][0].copy()
    _write_v1(tmp_path / "t.npz", "task", vars(SMALL), arrays)
    with pytest.raises(nk.ContractViolation, match="token_embedding"):
        load_checkpoint(tmp_path / "t.npz")


def test_checkpoint_rejects_non_float64(tmp_path):
    arrays = _arrays(init_task_model(SMALL, 3))
    arrays["head_w"] = arrays["head_w"].astype(np.float32)
    _write_v1(tmp_path / "t.npz", "task", vars(SMALL), arrays)
    with pytest.raises(nk.ContractViolation, match="head_w"):
        load_checkpoint(tmp_path / "t.npz")


def _write_header(path, header: bytes | None, arrays):
    extra = {} if header is None else {"__header__": np.frombuffer(header, dtype=np.uint8)}
    np.savez(path, **extra, **arrays)


_TASK_META = json.dumps(vars(SMALL))


@pytest.mark.parametrize("header", [
    None,
    b"\x80 not json",
    f'{{"kind": "task", "meta": {_TASK_META}}}'.encode(),
    f'{{"version": 1, "meta": {_TASK_META}}}'.encode(),
    b'{"version": 1, "kind": "task"}',
    b'[1, "task"]',
], ids=["no_header", "not_json", "no_version", "no_kind", "no_meta", "not_an_object"])
def test_checkpoint_rejects_malformed_header(tmp_path, header):
    _write_header(tmp_path / "t.npz", header, _arrays(init_task_model(SMALL, 3)))
    with pytest.raises(nk.ContractViolation, match="header"):
        load_checkpoint(tmp_path / "t.npz")


@pytest.mark.parametrize("kind, meta, name", [
    ("task", {k: v for k, v in vars(SMALL).items() if k != "d_ff"}, "ModelConfig"),
    ("task", {**vars(SMALL), "dropout": 0.1}, "ModelConfig"),
    ("generator", {"vocab_size": GEN.vocab_size, "tau": GEN.tau}, "GeneratorConfig"),
    ("generator", {**vars(GEN), "heads": 1}, "GeneratorConfig"),
], ids=["task_missing_field", "task_unknown_field",
        "generator_missing_field", "generator_unknown_field"])
def test_checkpoint_rejects_meta_that_does_not_fit_config(tmp_path, kind, meta, name):
    params = init_task_model(SMALL, 3) if kind == "task" else init_generator(GEN, 3)
    _write_v1(tmp_path / "c.npz", kind, meta, _arrays(params))
    with pytest.raises(nk.ContractViolation, match=name):
        load_checkpoint(tmp_path / "c.npz")


def _truncated_checkpoint(path):
    save_checkpoint(path, init_task_model(SMALL, 3))
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])


def _one_array(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def _meta(kind, **changes):
    base = vars(SMALL) if kind == "task" else vars(GEN)
    return lambda path: _write_v1(path, kind, {**base, **changes}, {})


@pytest.mark.parametrize("write", [
    lambda path: path.write_bytes(b"not an npz archive"),
    lambda path: path.write_bytes(b""),
    _truncated_checkpoint,
    _one_array,
    _meta("generator", tau=-1),
    _meta("generator", tau="x"),
    _meta("generator", dim=4.5),
    _meta("task", d_model=4, num_heads=3),
    _meta("task", d_model="4"),
], ids=["not_npz", "empty", "truncated", "npy_array", "generator_tau_negative",
        "generator_tau_string", "generator_dim_float", "task_heads_do_not_divide",
        "task_d_model_string"])
def test_checkpoint_rejects_unreadable_file_or_unbuildable_meta(tmp_path, write):
    path = tmp_path / "c.npz"
    write(path)
    with pytest.raises(nk.ContractViolation):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# layer norm: row means as sum / d
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(16, 32), (64, 128), (1, 32)])
def test_layer_norm_matches_np_mean_form_bitwise(shape):
    from attendout.models import _ln_backward, _ln_forward
    from conftest import ln_backward_reference, ln_forward_reference

    rng = nk.RngState(shape[0]).derive("ln")
    x = rng.normal_array(shape) * 3.0 + 0.5
    gain = 1.0 + rng.normal_array(shape[1:]) * 0.1
    bias = rng.normal_array(shape[1:]) * 0.1
    dy = rng.normal_array(shape)
    y, cache = _ln_forward(x, gain, bias)
    y_ref, cache_ref = ln_forward_reference(x, gain, bias)
    assert np.array_equal(y, y_ref)
    for a, b in zip(cache, cache_ref):
        assert np.array_equal(a, b)
    for a, b in zip(_ln_backward(cache, gain, dy), ln_backward_reference(cache_ref, gain, dy)):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# token-embedding gradient: one one-hot product per sequence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("vocab,length,d_model,heads", [(12, 16, 32, 2), (12, 64, 128, 4)])
def test_token_embedding_grad_equals_add_at_into_zeros_bitwise(vocab, length, d_model, heads):
    from conftest import token_embedding_grad_reference

    cfg = ModelConfig(vocab_size=vocab, max_len=length, num_layers=2, d_model=d_model,
                      d_ff=2 * d_model, num_heads=heads, num_classes=2)
    params = init_task_model(cfg, 5)
    rng = nk.RngState(6).derive("embed")
    # vocab < length, so tokens repeat; one id never occurs
    tokens = np.floor(rng.uniform_array(length) * (vocab - 1)).astype(np.int64)
    _, cache = task_forward(params, tokens)
    grads = ptree.zeros_like(params)
    base = rng.normal_array(grads.token_embedding.shape)
    grads.token_embedding[...] = base
    task_backward(cache, np.array([[0.3, -0.3]]), grads)
    dx = grads.position_embedding[:length]  # added into zeros: dx itself
    want = base + token_embedding_grad_reference(tokens, dx, vocab)
    assert np.array_equal(grads.token_embedding, want)
    assert np.array_equal(grads.token_embedding[vocab - 1], base[vocab - 1])
