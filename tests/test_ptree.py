"""Invariants of the flat parameter buffer behind every parameter tree."""

import numpy as np
import pytest

from attendout import ptree, trainer
from attendout.models import (
    GeneratorConfig,
    ModelConfig,
    init_generator,
    init_task_model,
    load_checkpoint,
    save_checkpoint,
    task_backward,
    task_forward,
)
from attendout.numkernel import RngState, cross_entropy_logits
from attendout.trainer import OptimizerState, optimizer_step, sync_models
from conftest import rand_attention

CFG = ModelConfig(vocab_size=9, max_len=6, num_layers=2, d_model=8,
                  d_ff=16, num_heads=2, num_classes=3)
GEN = GeneratorConfig(vocab_size=9, dim=4, tau=0.7)
BATCH = [(np.array([0, 3, 8, 2, 5, 1]), 1), (np.array([0, 1, 1, 4]), 2),
         (np.array([0, 7, 7, 7, 2]), 0)]


def _trees(tmp_path):
    task = init_task_model(CFG, 3)
    gen = init_generator(GEN, 3)
    save_checkpoint(tmp_path / "task.npz", task)
    save_checkpoint(tmp_path / "gen.npz", gen)
    return [task, gen, rand_attention(4),
            load_checkpoint(tmp_path / "task.npz"), load_checkpoint(tmp_path / "gen.npz")]


def _batch_grads(params):
    logits, caches = [], []
    for tokens, _ in BATCH:
        lg, cache = task_forward(params, tokens)
        logits.append(lg[0])
        caches.append(cache)
    _, dlogits = cross_entropy_logits(np.stack(logits), [label for _, label in BATCH])
    grads = ptree.zeros_like(params)
    for i, cache in enumerate(caches):
        task_backward(cache, dlogits[i:i + 1], grads)
    return grads


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def test_every_array_is_a_view_of_its_model_buffer(tmp_path):
    for tree in _trees(tmp_path):
        leaves = list(ptree.iter_arrays(tree))
        assert tree.flat.dtype == np.float64
        assert tree.flat.size == sum(arr.size for _, arr in leaves)
        assert all(np.shares_memory(arr, tree.flat) for _, arr in leaves)
        # laid out in iter_arrays order
        assert np.array_equal(tree.flat, np.concatenate([a.ravel() for _, a in leaves]))


def test_nested_nodes_own_their_slice():
    task = init_task_model(CFG, 3)
    for layer in task.layers:
        assert np.shares_memory(layer.flat, task.flat)
        assert np.shares_memory(layer.attn.flat, layer.flat)
        layer.attn.flat[...] = 7.0
        assert np.all(layer.attn.w_o == 7.0)


def test_copies_share_no_memory_with_source(tmp_path):
    for tree in _trees(tmp_path):
        for fresh in (ptree.copy_tree(tree), ptree.zeros_like(tree)):
            assert not np.shares_memory(fresh.flat, tree.flat)
            assert [n for n, _ in ptree.iter_arrays(fresh)] == \
                [n for n, _ in ptree.iter_arrays(tree)]
            assert all(np.shares_memory(arr, fresh.flat)
                       for _, arr in ptree.iter_arrays(fresh))
        assert ptree.trees_equal(ptree.copy_tree(tree), tree)
        assert not ptree.zeros_like(tree).flat.any()


def test_first_nonfinite_names_the_tensor():
    grads = ptree.zeros_like(init_task_model(CFG, 3))
    assert ptree.first_nonfinite(grads) is None
    grads.layers[1].attn.w_k[2, 3] = np.inf
    assert ptree.first_nonfinite(grads) == "layers.1.attn.w_k"


def test_add_scaled_rejects_other_layouts():
    with pytest.raises(ValueError):
        ptree.add_scaled(init_task_model(CFG, 3), init_generator(GEN, 3))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def _per_leaf_step(params, grads, lr, state, slots):
    """The per-tensor optimizer loop the whole-buffer step replaced; kept as
    the bit-exact reference."""
    state.t += 1
    for (name, p), (_, g) in zip(ptree.iter_arrays(params), ptree.iter_arrays(grads)):
        if state.algo == "sgd":
            if state.momentum > 0.0:
                v = slots.setdefault(name, np.zeros_like(p))
                v *= state.momentum
                v += g
                p -= lr * v
            else:
                p -= lr * g
        else:
            m = slots.setdefault(name + ".m", np.zeros_like(p))
            v = slots.setdefault(name + ".v", np.zeros_like(p))
            m *= state.beta1
            m += (1 - state.beta1) * g
            v *= state.beta2
            v += (1 - state.beta2) * g * g
            m_hat = m / (1 - state.beta1 ** state.t)
            v_hat = v / (1 - state.beta2 ** state.t)
            p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


@pytest.mark.parametrize("algo,momentum", [("sgd", 0.0), ("sgd", 0.9), ("adam", 0.0)])
def test_whole_buffer_step_matches_per_leaf_reference(algo, momentum):
    fast = init_task_model(CFG, 5)
    ref = ptree.copy_tree(fast)
    fast_state, ref_state = OptimizerState(algo, momentum), OptimizerState(algo, momentum)
    slots = {}
    for _ in range(5):
        grads = _batch_grads(fast)
        assert ptree.trees_equal(grads, _batch_grads(ref))
        optimizer_step(fast, grads, 0.01, fast_state)
        _per_leaf_step(ref, grads, 0.01, ref_state, slots)
        assert fast.flat.tobytes() == ref.flat.tobytes()
    assert fast_state.t == ref_state.t == 5


def test_sync_gives_independent_models_and_optimizer_states():
    defender, attacker = init_task_model(CFG, 1), init_task_model(CFG, 2)
    opt = OptimizerState("adam")
    optimizer_step(defender, _batch_grads(defender), 0.01, opt)
    d2, a2, source = sync_models(defender, attacker, 0.9, 0.1, RngState(0))
    opt_d, opt_a = trainer._copy_opt_state(opt), trainer._copy_opt_state(opt)
    attacker_before = ptree.copy_tree(a2)
    m_before = opt_a.m.copy()
    optimizer_step(d2, _batch_grads(d2), 0.01, opt_d)
    assert ptree.trees_equal(a2, attacker_before)
    assert opt_a.m.tobytes() == m_before.tobytes()
    assert not ptree.trees_equal(d2, a2)


# ---------------------------------------------------------------------------
# no tree walks on the training path
# ---------------------------------------------------------------------------


def test_training_step_sync_and_optimizer_do_not_walk(monkeypatch):
    params = init_task_model(CFG, 7)
    other = ptree.copy_tree(params)
    state = OptimizerState("adam")

    def refuse(*args, **kwargs):
        raise AssertionError("iter_arrays walked on the training path")
    monkeypatch.setattr(ptree, "iter_arrays", refuse)
    loss = trainer._update_on_batch(params, BATCH, 0.01, state)
    assert np.isfinite(loss)
    optimizer_step(params, ptree.zeros_like(params), 0.01, state)
    sync_models(params, other, 0.5, 0.5, RngState(1))
