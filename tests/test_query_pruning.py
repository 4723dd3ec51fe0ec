"""The classifier reads position 0 only, so the last encoder block that runs
computes one query row, and takes its attention products in the other order
(no L x d x d key or value projection). These tests hold that pruned path to
the full-row references in conftest: bit for bit where every row is
computed, and to 1e-12 relative error where the products are reassociated."""

import numpy as np
import pytest

from attendout import numkernel as nk
from attendout import ptree
from attendout.attention import MaskMatrix, attn_backward, attn_forward
from attendout.models import ModelConfig, init_task_model, task_backward, task_forward
from conftest import (
    attn_backward_reference,
    attn_forward_reference,
    max_rel_err,
    rand_attention,
    task_backward_reference,
    task_forward_reference,
)

TOL = 1e-12
MASK_KINDS = ["none", "scores", "weights", "weights_rescale", "all_dropped"]


def _mask(kind, length, seed):
    bits = (nk.RngState(seed).derive("mask").uniform_array(length * length)
            .reshape(length, length) < 0.4).astype(np.uint8)
    bits[:, 0] = 0  # a kept unit per row, so SCORES does not escalate
    if kind == "none":
        return None
    if kind == "scores":
        return MaskMatrix.from_drop_bits(bits)
    if kind == "weights":
        return MaskMatrix.weights_from_drop_bits(bits)
    if kind == "weights_rescale":
        return MaskMatrix.weights_from_drop_bits(bits, rescale=1 / 0.6)
    return MaskMatrix.all_dropped()


def _rel_err(a, reference):
    """Largest deviation relative to the tensor's largest entry: entries near
    zero come out of cancellation and carry the absolute error of the rest."""
    scale = np.abs(reference).max()
    return float(np.abs(a - reference).max() / scale) if scale else float(np.abs(a).max())


def _assert_trees_close(tree, reference):
    for (name, a), (_, r) in zip(ptree.iter_arrays(tree), ptree.iter_arrays(reference)):
        assert _rel_err(a, r) <= TOL, name


# ---------------------------------------------------------------------------
# attention with fewer query rows
# ---------------------------------------------------------------------------


def _check_attention(kind, queries, heads):
    length, d = 5, 8
    params = rand_attention(41, d=d, heads=heads)
    rng = nk.RngState(42).derive("x")
    x = rng.normal_array((length, d)) * 0.5
    dy = rng.normal_array((length, d)) * 0.5
    mask = _mask(kind, length, 43)
    q = length if queries is None else queries
    dy[q:] = 0.0  # rows the pruned layer never computes carry no gradient

    y_ref, cache_ref = attn_forward_reference(x, params, mask)
    g_ref = ptree.zeros_like(params)
    dx_ref = attn_backward_reference(cache_ref, dy, g_ref)

    y, cache = attn_forward(x, params, mask, queries=queries)
    assert y.shape == (q, d)
    g = ptree.zeros_like(params)
    dx = attn_backward(cache, dy[:q], g)
    assert dx.shape == (length, d)
    if q == length:
        assert np.array_equal(y, y_ref)
        assert np.array_equal(dx, dx_ref)
        assert np.array_equal(g.flat, g_ref.flat)
    else:
        assert _rel_err(y, y_ref[:q]) <= TOL
        assert _rel_err(dx, dx_ref) <= TOL
        _assert_trees_close(g, g_ref)


@pytest.mark.parametrize("kind", MASK_KINDS)
@pytest.mark.parametrize("queries", [None, 1, 2, 5])
def test_attention_queries_match_full_rows(kind, queries):
    _check_attention(kind, queries, heads=2)


@pytest.mark.parametrize("kind", MASK_KINDS)
@pytest.mark.parametrize("queries", [1, 2, 4])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_folded_attention_matches_full_rows_for_each_head_count(kind, queries, heads):
    # q < L takes the products in the other order, through block-diagonal
    # operands with one block per head
    _check_attention(kind, queries, heads)


@pytest.mark.parametrize("queries", [0, 6])
def test_attention_rejects_query_count_outside_sequence(queries):
    x = np.zeros((5, 8))
    with pytest.raises(nk.ShapeError):
        attn_forward(x, rand_attention(1), None, queries=queries)


@pytest.mark.parametrize("kind", MASK_KINDS)
def test_gradcheck_one_query_row(kind):
    length, d = 4, 8
    params = rand_attention(51, d=d, heads=2)
    rng = nk.RngState(52).derive("gc")
    x = rng.normal_array((length, d)) * 0.5
    dy = rng.normal_array((1, d)) * 0.5
    mask = _mask(kind, length, 53)
    _, cache = attn_forward(x, params, mask, queries=1)
    grads = ptree.zeros_like(params)
    dx = attn_backward(cache, dy, grads)

    probe = ptree.copy_tree(params)

    def objective(vec):
        ptree.set_flat(probe, vec)
        return float((dy * attn_forward(x, probe, mask, queries=1)[0]).sum())

    def objective_x(vec):
        return float((dy * attn_forward(vec.reshape(x.shape), params, mask, queries=1)[0]).sum())

    fd = nk.finite_diff_grad(objective, ptree.flatten(params), 1e-5)
    fd_x = nk.finite_diff_grad(objective_x, x.ravel().copy(), 1e-5)
    assert max_rel_err(ptree.flatten(grads), fd) <= 1e-4
    assert max_rel_err(dx.ravel(), fd_x) <= 1e-4


# ---------------------------------------------------------------------------
# the task model's pruned last block
# ---------------------------------------------------------------------------


def _check_task_model(layers, length, heads, layer_masks=None, skip_blocks=None):
    cfg = ModelConfig(vocab_size=7, max_len=8, num_layers=layers, d_model=8,
                      d_ff=16, num_heads=heads, num_classes=3)
    params = init_task_model(cfg, 61)
    # larger weights than the init, so every block visibly moves the logits
    params.flat[...] = nk.RngState(62).normal_array(params.flat.shape) * 0.3
    tokens = np.array([0, 3, 5, 3, 1, 6, 2, 3][:length])
    dlogits = np.array([[0.7, -0.2, -0.5]])

    logits_ref, cache_ref = task_forward_reference(params, tokens, layer_masks, skip_blocks)
    g_ref = ptree.zeros_like(params)
    task_backward_reference(params, cache_ref, dlogits, g_ref)

    logits, cache = task_forward(params, tokens, layer_masks, skip_blocks)
    g = ptree.zeros_like(params)
    task_backward(cache, dlogits, g)

    assert _rel_err(logits, logits_ref) <= TOL
    _assert_trees_close(g, g_ref)
    assert np.any(g.token_embedding != 0)
    return cache


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("kind", MASK_KINDS)
def test_pruned_last_block_matches_full_rows_under_each_mask(kind, heads):
    first = _mask("scores", 6, 71)
    cache = _check_task_model(2, 6, heads, [first, _mask(kind, 6, 72)])
    assert cache.x_final.shape == (1, 8)


def test_skipped_last_block_moves_pruning_to_block_zero():
    masks = [_mask("weights_rescale", 6, 73), _mask("scores", 6, 74), None]
    cache = _check_task_model(3, 6, 2, masks, np.array([0, 1, 1]))
    assert cache.blocks[0].attn_cache.pre.shape == (1, 8)
    assert cache.x_final.shape == (1, 8)


def test_inner_skip_prunes_the_last_block_only():
    cache = _check_task_model(3, 6, 2, skip_blocks=np.array([0, 1, 0]))
    assert cache.blocks[0].attn_cache.pre.shape == (6, 8)
    assert cache.blocks[2].attn_cache.pre.shape == (1, 8)


def test_all_blocks_skipped_keeps_every_row():
    cache = _check_task_model(2, 6, 2, skip_blocks=np.array([1, 1]))
    assert cache.x_final.shape == (6, 8)


@pytest.mark.parametrize("heads", [1, 2])
def test_one_layer_model(heads):
    _check_task_model(1, 6, heads, [_mask("scores", 6, 75)])


@pytest.mark.parametrize("kind", ["none", "all_dropped"])
def test_length_one_sequence(kind):
    _check_task_model(2, 1, 2, [None, _mask(kind, 1, 76)])
