"""Invariants of the flat parameter buffer behind every parameter tree."""

import tracemalloc

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
from attendout.tasks import Dataset
from attendout.trainer import optimizer_state, optimizer_step, sync_models
from conftest import optimizer_step_reference, rand_attention

CFG = ModelConfig(vocab_size=9, max_len=6, num_layers=2, d_model=8,
                  d_ff=16, num_heads=2, num_classes=3)
GEN = GeneratorConfig(vocab_size=9, dim=4, tau=0.7)
BATCH = Dataset(np.array([[0, 3, 8, 2, 5, 1], [0, 1, 1, 4, 6, 6], [0, 7, 7, 7, 2, 3]]),
                np.array([1, 2, 0]), num_classes=3)


def _trees(tmp_path):
    task = init_task_model(CFG, 3)
    gen = init_generator(GEN, 3)
    save_checkpoint(tmp_path / "task.npz", task)
    save_checkpoint(tmp_path / "gen.npz", gen)
    return [task, gen, rand_attention(4),
            load_checkpoint(tmp_path / "task.npz"), load_checkpoint(tmp_path / "gen.npz")]


def _batch_grads(params):
    logits, caches = [], []
    for tokens in BATCH.tokens:
        lg, cache = task_forward(params, tokens)
        logits.append(lg[0])
        caches.append(cache)
    _, dlogits = cross_entropy_logits(np.stack(logits), BATCH.labels)
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


@pytest.mark.parametrize("algo,momentum", [("sgd", 0.0), ("sgd", 0.9), ("adam", 0.0)])
def test_whole_buffer_step_matches_per_leaf_reference(algo, momentum):
    fast = init_task_model(CFG, 5)
    ref = ptree.copy_tree(fast)
    fast_state = optimizer_state(fast, algo, momentum)
    ref_state = optimizer_state(ref, algo, momentum)
    slots = {}
    for _ in range(5):
        grads = _batch_grads(fast)
        assert ptree.trees_equal(grads, _batch_grads(ref))
        optimizer_step(fast, grads, 0.01, fast_state)
        optimizer_step_reference(ref, grads, 0.01, ref_state, slots)
        assert fast.flat.tobytes() == ref.flat.tobytes()
    assert fast_state.t == ref_state.t == 5


@pytest.mark.parametrize("algo,momentum", [("sgd", 0.0), ("sgd", 0.9), ("adam", 0.0)])
def test_step_allocates_no_whole_model_vector(algo, momentum):
    # every intermediate vector is one of the state's two scratch vectors
    params = init_task_model(CFG, 5)
    state = optimizer_state(params, algo, momentum)
    grads = _batch_grads(params)
    optimizer_step(params, grads, 0.01, state)
    tracemalloc.start()
    try:
        optimizer_step(params, grads, 0.01, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.flat.nbytes


# ---------------------------------------------------------------------------
# no tree walks on the training path
# ---------------------------------------------------------------------------


def test_training_step_sync_and_optimizer_do_not_walk(monkeypatch):
    params = init_task_model(CFG, 7)
    other = ptree.copy_tree(params)
    state, other_state = optimizer_state(params, "adam"), optimizer_state(other, "adam")

    def refuse(*args, **kwargs):
        raise AssertionError("iter_arrays walked on the training path")
    monkeypatch.setattr(ptree, "iter_arrays", refuse)
    loss = trainer._update_on_batch(params, BATCH, 0.01, state)
    assert np.isfinite(loss)
    optimizer_step(params, ptree.zeros_like(params), 0.01, state)
    sync_models(params, other, state, other_state, 0.5, 0.5, RngState(1))
