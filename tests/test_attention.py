import math

import numpy as np
import pytest

from attendout import numkernel as nk
from attendout import ptree
from attendout.attention import (
    MaskMatrix,
    MaskMode,
    attn_backward,
    attn_forward,
    constant_attention,
)
from conftest import max_rel_err, rand_attention


def _rand_x(seed, length, d, scale=0.5):
    return nk.RngState(seed).derive("x").normal_array((length, d)) * scale


# ---------------------------------------------------------------------------
# forward oracles
# ---------------------------------------------------------------------------


def _naive_single_head(x, params):
    """Per-element reimplementation with python loops and math.exp."""
    q, k, v = x @ params.w_q, x @ params.w_k, x @ params.w_v
    length, d = x.shape
    scores = [[sum(q[i][a] * k[j][a] for a in range(d)) / math.sqrt(d)
               for j in range(length)] for i in range(length)]
    out = np.zeros_like(x)
    for i in range(length):
        m = max(scores[i])
        exps = [math.exp(s - m) for s in scores[i]]
        z = sum(exps)
        for j in range(length):
            out[i] += (exps[j] / z) * v[j]
    return out @ params.w_o


def test_forward_matches_naive_oracle():
    params = rand_attention(1, d=8, heads=1)
    x = _rand_x(2, 3, 8)
    y, _ = attn_forward(x, params)
    assert np.abs(y - _naive_single_head(x, params)).max() <= 1e-12


def test_scores_zero_mask_is_identity():
    params = rand_attention(3)
    x = _rand_x(4, 5, 8)
    y_plain, _ = attn_forward(x, params)
    y_masked, _ = attn_forward(
        x, params, MaskMatrix.from_drop_bits(np.zeros((5, 5), dtype=int))
    )
    assert np.array_equal(y_plain, y_masked)


def test_weights_all_ones_is_identity():
    params = rand_attention(5)
    x = _rand_x(6, 4, 8)
    y_plain, _ = attn_forward(x, params)
    y_masked, _ = attn_forward(
        x, params, MaskMatrix.weights_from_drop_bits(np.zeros((4, 4), dtype=int))
    )
    assert np.array_equal(y_plain, y_masked)


# ---------------------------------------------------------------------------
# constant attention
# ---------------------------------------------------------------------------


def test_constant_attention_single_row_equals_plain():
    params = rand_attention(7, heads=1)
    x = _rand_x(8, 1, 8)
    y_plain, _ = attn_forward(x, params)
    y_const = constant_attention(x @ params.w_v) @ params.w_o
    assert np.abs(y_plain - y_const).max() <= 1e-12


def test_constant_attention_rows_are_column_mean():
    v = _rand_x(9, 4, 8)
    pre = constant_attention(v)
    mean = np.array([sum(v[i, j] for i in range(4)) / 4 for j in range(8)])
    assert np.abs(pre - mean).max() <= 1e-12
    assert all(np.array_equal(pre[0], pre[i]) for i in range(4))


def test_constant_attention_matches_softmax_limit_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    v = _rand_x(10, 5, 8)
    # softmax of an all-equal (all-dropped) row at high precision is uniform
    weights = [mpmath.mpf(1) / 5] * 5
    expected = np.zeros((5, 8))
    for i in range(5):
        for j in range(8):
            expected[i, j] = float(sum(w * mpmath.mpf(v[r, j]) for w, r in zip(weights, range(5))))
    assert np.abs(constant_attention(v) - expected).max() <= 1e-12


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_scores_mode_rows_renormalize():
    params = rand_attention(11)
    rng = nk.RngState(13)
    for _ in range(20):
        x = rng.normal_array((6, 8))
        bits = (rng.uniform_array(36).reshape(6, 6) < 0.4).astype(int)
        bits[:, 0] = 0
        _, cache = attn_forward(x, params, MaskMatrix.from_drop_bits(bits))
        sums = cache.attn.sum(axis=2)
        assert np.abs(sums - 1.0).max() <= 1e-12
        # dropped units are exactly zero, survivors renormalize
        assert np.all(cache.attn[:, bits.astype(bool)] == 0.0)


def test_scores_mode_survivors_match_subset_softmax():
    params = rand_attention(15, heads=1)
    x = _rand_x(16, 4, 8)
    bits = np.array([[0, 1, 0, 1]] * 4)
    _, cache = attn_forward(x, params, MaskMatrix.from_drop_bits(bits))
    raw = (x @ params.w_q) @ (x @ params.w_k).T / math.sqrt(8)
    for i in range(4):
        kept = [j for j in range(4) if bits[i, j] == 0]
        sub = np.exp(raw[i, kept] - raw[i, kept].max())
        sub = sub / sub.sum()
        assert np.abs(cache.attn[0, i, kept] - sub).max() <= 1e-12


def test_weights_mode_does_not_renormalize():
    params = rand_attention(17)
    x = _rand_x(18, 5, 8)
    bits = np.zeros((5, 5))
    bits[2, :3] = 1  # drop three units of row 2
    keep = 1 - bits
    _, cache_w = attn_forward(x, params, MaskMatrix.weights_from_drop_bits(bits))
    masked = cache_w.attn_used
    plain = cache_w.attn
    expected_row_sum = (plain[:, 2, :] * keep[2]).sum(axis=1)
    assert np.abs(masked[:, 2, :].sum(axis=1) - expected_row_sum).max() <= 1e-15
    assert np.all(masked[:, 2, :].sum(axis=1) < 1.0)
    # the asymmetry: SCORES mode renormalizes the same drop pattern
    scores_bits = np.zeros((5, 5), dtype=int)
    scores_bits[2, :3] = 1
    _, cache_s = attn_forward(x, params, MaskMatrix.from_drop_bits(scores_bits))
    assert np.abs(cache_s.attn.sum(axis=2) - 1.0).max() <= 1e-12


def test_permutation_equivariance_single_head():
    params = rand_attention(19, heads=1)
    x = _rand_x(20, 5, 8)
    perm = nk.RngState(21).permutation(5)
    y, _ = attn_forward(x, params)
    y_perm, _ = attn_forward(x[perm], params)
    assert np.abs(y[perm] - y_perm).max() <= 1e-12


# ---------------------------------------------------------------------------
# mask validation and escalation
# ---------------------------------------------------------------------------


def test_scores_mask_with_dead_row_rejected():
    drop = np.zeros((3, 3), dtype=bool)
    drop[1, :] = True
    with pytest.raises(nk.ContractViolation):
        MaskMatrix(MaskMode.SCORES, drop)


def test_from_drop_bits_escalates_full_matrix():
    mask = MaskMatrix.from_drop_bits(np.ones((4, 4), dtype=int))
    assert mask.mode is MaskMode.ALL_DROPPED


def test_from_drop_bits_escalates_full_row():
    bits = np.zeros((4, 4), dtype=int)
    bits[2, :] = 1
    assert MaskMatrix.from_drop_bits(bits).mode is MaskMode.ALL_DROPPED


def test_weights_mask_validates_binary():
    with pytest.raises(nk.ContractViolation):
        MaskMatrix(MaskMode.WEIGHTS, np.full((3, 3), 0.5))


@pytest.mark.parametrize("mode, drop", [
    (MaskMode.SCORES, np.array([[0.0, -1e3], [0.0, 0.0]])),
    (MaskMode.SCORES, np.zeros((2, 3), dtype=bool)),
    (MaskMode.WEIGHTS, np.zeros((2, 3), dtype=bool)),
    (MaskMode.WEIGHTS, np.zeros(3, dtype=bool)),
    (MaskMode.SCORES, None),
    (MaskMode.ALL_DROPPED, np.zeros((2, 2), dtype=bool)),
    (MaskMode.SCORES, np.zeros((3, 3))),
    (MaskMode.WEIGHTS, np.ones((3, 3))),
    (MaskMode.SCORES, np.zeros((3, 3), dtype=np.uint8)),
    (MaskMode.WEIGHTS, np.zeros((3, 3), dtype=np.uint8)),
    (MaskMode.WEIGHTS, [[False, False], [False, False]]),
], ids=["scores_non_sentinel", "scores_non_square", "weights_non_square",
        "weights_1d", "scores_no_entries", "all_dropped_with_entries",
        "scores_float", "weights_float_keep", "scores_uint8", "weights_uint8",
        "weights_list"])
def test_mask_rejects_bad_entries_when_built(mode, drop):
    with pytest.raises(nk.ContractViolation):
        MaskMatrix(mode, drop)


@pytest.mark.parametrize("rescale", [None, 1 / 0.7], ids=["plain", "rescale"])
def test_weights_from_drop_bits_zeroes_exactly_the_dropped_units(rescale):
    params = rand_attention(23)
    x = _rand_x(24, 5, 8)
    bits = (nk.RngState(22).uniform_array(25).reshape(5, 5) < 0.4).astype(np.uint8)
    bits[3, :] = 1  # a dead row is allowed in WEIGHTS mode
    mask = MaskMatrix.weights_from_drop_bits(bits, rescale)
    assert mask.mode is MaskMode.WEIGHTS and mask.rescale == rescale
    assert np.array_equal(mask.drop, bits == 1)
    _, cache = attn_forward(x, params, mask)
    assert np.all(cache.attn > 0.0)
    dropped = np.broadcast_to(bits == 1, cache.attn.shape)
    assert np.all(cache.attn_used[dropped] == 0.0)
    kept = cache.attn[~dropped]
    assert np.array_equal(cache.attn_used[~dropped], kept if rescale is None else kept * rescale)


def test_forward_rejects_mask_of_another_length():
    params = rand_attention(25)
    x = _rand_x(26, 3, 8)
    with pytest.raises(nk.ShapeError):
        attn_forward(x, params, MaskMatrix.weights_from_drop_bits(np.zeros((4, 4))))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def _gradcheck_mode(mask, seed=31, heads=2, length=4, d=8):
    params = rand_attention(seed, d=d, heads=heads)
    rng = nk.RngState(seed).derive("gc")
    x = rng.normal_array((length, d)) * 0.5
    dy = rng.normal_array((length, d)) * 0.5
    _, cache = attn_forward(x, params, mask)
    grads = ptree.zeros_like(params)
    dx = attn_backward(cache, dy, grads)

    probe = ptree.copy_tree(params)

    def objective(vec):
        ptree.set_flat(probe, vec)
        y, _ = attn_forward(x, probe, mask)
        return float((dy * y).sum())

    fd = nk.finite_diff_grad(objective, ptree.flatten(params), 1e-5)
    err = max_rel_err(ptree.flatten(grads), fd)

    def objective_x(vec):
        y, _ = attn_forward(vec.reshape(x.shape), params, mask)
        return float((dy * y).sum())

    fd_x = nk.finite_diff_grad(objective_x, x.ravel().copy(), 1e-5)
    return max(err, max_rel_err(dx.ravel(), fd_x))


def test_backward_zero_upstream_gives_zero_grads():
    params = rand_attention(27)
    x = _rand_x(28, 4, 8)
    _, cache = attn_forward(x, params)
    grads = ptree.zeros_like(params)
    dx = attn_backward(cache, np.zeros_like(x), grads)
    assert np.all(dx == 0)
    for _, arr in ptree.iter_arrays(grads):
        assert np.all(arr == 0)


def test_gradcheck_mode_none():
    assert _gradcheck_mode(None) <= 1e-4


def test_gradcheck_mode_scores():
    bits = (nk.RngState(1).uniform_array(16).reshape(4, 4) < 0.3).astype(int)
    bits[:, 0] = 0
    assert _gradcheck_mode(MaskMatrix.from_drop_bits(bits)) <= 1e-4


def test_gradcheck_mode_weights():
    bits = (nk.RngState(2).uniform_array(16).reshape(4, 4) < 0.3).astype(float)
    assert _gradcheck_mode(MaskMatrix.weights_from_drop_bits(bits)) <= 1e-4


def test_gradcheck_mode_weights_with_rescale():
    bits = (nk.RngState(2).uniform_array(16).reshape(4, 4) < 0.3).astype(float)
    assert _gradcheck_mode(MaskMatrix.weights_from_drop_bits(bits, rescale=1 / 0.7)) <= 1e-4


def test_gradcheck_mode_all_dropped():
    assert _gradcheck_mode(MaskMatrix.all_dropped()) <= 1e-4


def test_backward_adds_into_existing_gradients():
    bits = (nk.RngState(3).uniform_array(16).reshape(4, 4) < 0.3).astype(np.uint8)
    bits[:, 0] = 0
    masks = [None, MaskMatrix.from_drop_bits(bits),
             MaskMatrix.weights_from_drop_bits(bits, rescale=1 / 0.7), MaskMatrix.all_dropped()]
    params = rand_attention(32)
    x, dy = _rand_x(33, 4, 8), _rand_x(34, 4, 8)
    g0 = rand_attention(35, scale=2.0)
    for mask in masks:
        _, cache = attn_forward(x, params, mask)
        fresh = ptree.zeros_like(params)
        dx_fresh = attn_backward(cache, dy, fresh)
        held = ptree.copy_tree(g0)
        dx_held = attn_backward(cache, dy, held)
        assert np.array_equal(held.flat, g0.flat + fresh.flat)
        assert np.array_equal(dx_held, dx_fresh)


def test_all_dropped_skips_query_key_gradients():
    params = rand_attention(29)
    x = _rand_x(30, 5, 8)
    _, cache = attn_forward(x, params, MaskMatrix.all_dropped())
    grads = ptree.zeros_like(params)
    attn_backward(cache, _rand_x(31, 5, 8), grads)
    assert np.all(grads.w_q == 0)
    assert np.all(grads.w_k == 0)
    assert np.any(grads.w_v != 0)
