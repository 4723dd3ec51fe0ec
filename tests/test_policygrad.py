import math

import numpy as np
import pytest

from attendout import numkernel as nk
from attendout import ptree
from attendout.models import (
    GeneratorConfig,
    gnet_sample_masks,
    gnet_scores,
    init_generator,
)
from attendout.policygrad import (
    WIN_ATTACKER,
    WIN_DEFENDER,
    WIN_TIE,
    Baseline,
    compute_rewards,
    expected_reward_oracle,
    reinforce_update,
    update_baseline,
)
from conftest import logprob_grad, max_rel_err, tree_finite_diff

TOY = GeneratorConfig(vocab_size=5, dim=3, tau=1.0)
TOY_TOKENS = np.array([1, 3])


def _toy_generator(seed=11):
    return init_generator(TOY, seed)


def _buffers(gparams):
    return ptree.zeros_like(gparams), ptree.zeros_like(gparams)


def _random_reward_table(seed=77):
    rng = nk.RngState(seed).derive("rewards")
    table = {idx: rng.uniform() for idx in range(16)}

    def reward_fn(masks):
        bits = masks[0].ravel()
        idx = int(bits[0]) | int(bits[1]) << 1 | int(bits[2]) << 2 | int(bits[3]) << 3
        return table[idx]

    return reward_fn


# ---------------------------------------------------------------------------
# rewards
# ---------------------------------------------------------------------------


def test_rewards_attacker_wins():
    rec = compute_rewards(0.8, 0.7)
    assert rec.reward == 1.0
    assert rec.win == WIN_ATTACKER


def test_rewards_tie():
    rec = compute_rewards(0.5, 0.5)
    assert rec.reward == 0.0
    assert rec.win == WIN_TIE


def test_rewards_defender_wins():
    rec = compute_rewards(0.6, 0.9)
    assert rec.reward == -1.0
    assert rec.win == WIN_DEFENDER


def test_rewards_gap_scheme():
    rec = compute_rewards(0.75, 0.5, scheme="gap")
    assert abs(rec.reward - 0.25) <= 1e-15
    assert rec.win == WIN_ATTACKER


def test_rewards_gap_is_exact_outcome():
    assert compute_rewards(0.75, 0.5, "gap").reward == 0.25


def test_rewards_validate_scores():
    with pytest.raises(ValueError):
        compute_rewards(1.2, 0.5)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def test_baseline_initializes_to_first_mean():
    b = update_baseline(Baseline(decay=0.9), compute_rewards(1.0, 0.0))
    assert b.value == 1.0 and b.initialized


def test_baseline_one_step_recurrence():
    b = Baseline(0.9, 0.0, True)
    b = update_baseline(b, compute_rewards(1.0, 0.0))
    assert abs(b.value - 0.1) <= 1e-15


def test_baseline_geometric_convergence():
    b = Baseline(0.9, 0.0, True)
    c = -1.0
    rec = compute_rewards(0.2, 0.9)  # constant reward -1
    for _ in range(100):
        b = update_baseline(b, rec)
    assert abs(b.value - c) <= abs(c) * (0.9 ** 100 + 1e-12)


def test_baseline_decay_validated():
    with pytest.raises(ValueError):
        Baseline(decay=1.0)


# ---------------------------------------------------------------------------
# reinforce update
# ---------------------------------------------------------------------------


def test_zero_advantage_leaves_params_bitwise():
    g = _toy_generator()
    before = ptree.copy_tree(g)
    rng = nk.RngState(1)
    decisions = [(TOY_TOKENS, gnet_sample_masks(g, TOY_TOKENS, 1, rng)) for _ in range(3)]
    rewards = compute_rewards(0.7, 0.7)  # tie: zero reward
    reinforce_update(g, decisions, rewards, Baseline(0.9, 0.0, True), 1.0, _buffers(g))
    assert ptree.trees_equal(g, before)


def test_tie_after_negative_baseline_steps_by_decayed_advantage():
    # update_baseline runs first: b = 0.9 * -0.5, so a tie's advantage is
    # 0 - b = decay * (0 - b_prev) = 0.45, not zero
    g = _toy_generator()
    before = ptree.copy_tree(g)
    rng = nk.RngState(1)
    decisions = [(TOY_TOKENS, gnet_sample_masks(g, TOY_TOKENS, 1, rng)) for _ in range(3)]
    rewards = compute_rewards(0.7, 0.7)
    baseline = update_baseline(Baseline(0.9, -0.5, True), rewards)
    reinforce_update(g, decisions, rewards, baseline, 1.0, _buffers(g))
    total = sum(ptree.flatten(logprob_grad(before, tokens, d)) for tokens, d in decisions)
    delta = g.flat - before.flat
    assert np.any(delta != 0)
    assert np.abs(delta - 0.9 * 0.5 * total).max() <= 1e-12 * np.abs(total).max()


def test_single_decision_update_direction():
    g = _toy_generator()
    rng = nk.RngState(2)
    decision = gnet_sample_masks(g, TOY_TOKENS, 1, rng)
    grad = ptree.flatten(logprob_grad(g, TOY_TOKENS, decision))
    for reward, sign in ((1.0, 1.0), (-1.0, -1.0)):
        probe = ptree.copy_tree(g)
        rewards = compute_rewards(1.0 if reward > 0 else 0.0,
                                  0.0 if reward > 0 else 1.0)
        reinforce_update(probe, [(TOY_TOKENS, decision)], rewards,
                         Baseline(0.9, 0.0, True), 0.5, _buffers(g))
        delta = ptree.flatten(probe) - ptree.flatten(g)
        assert np.abs(delta - 0.5 * sign * grad).max() <= 1e-15


def test_two_step_update_matches_per_decision_arithmetic():
    g = _toy_generator()
    rng = nk.RngState(3)
    steps = [[np.array([1, 3]), np.array([2, 4])], [np.array([4, 1]), np.array([3, 3])]]
    decisions = [(tokens, gnet_sample_masks(g, tokens, 2, rng))
                 for batch in steps for tokens in batch]
    rewards = compute_rewards(0.75, 0.5)
    baseline = Baseline(0.9, 0.25, True)
    lr = 0.3
    # one reward copy per decision, one advantage each, one add_scaled per
    # tree, then the lr step
    expected = ptree.copy_tree(g)
    total = ptree.zeros_like(g)
    for (tokens, decision), r in zip(decisions, np.full(len(decisions), 1.0)):
        advantage = float(r) - baseline.value
        ptree.add_scaled(total, logprob_grad(g, tokens, decision), advantage)
    ptree.add_scaled(expected, total, lr)
    reinforce_update(g, decisions, rewards, baseline, lr, _buffers(g))
    assert not np.array_equal(g.flat, _toy_generator().flat)
    assert np.array_equal(g.flat, expected.flat)


def test_update_allocates_no_tree_and_ignores_what_its_buffers_held(monkeypatch):
    g = _toy_generator()
    fresh = ptree.copy_tree(g)
    rng = nk.RngState(4)
    decisions = [(TOY_TOKENS, gnet_sample_masks(g, TOY_TOKENS, 1, rng)) for _ in range(5)]
    rewards, baseline = compute_rewards(1.0, 0.0), Baseline(0.9, 0.0, True)
    reinforce_update(fresh, decisions, rewards, baseline, 0.1, _buffers(g))
    used = _buffers(g)
    for tree in used:
        tree.flat[...] = 3.0
    calls = []
    zeros_like = ptree.zeros_like
    monkeypatch.setattr(ptree, "zeros_like", lambda tree: calls.append(1) or zeros_like(tree))
    reinforce_update(g, decisions, rewards, baseline, 0.1, used)
    assert calls == []
    assert np.array_equal(g.flat, fresh.flat)


def test_length_mismatch_rejected():
    g = _toy_generator()
    rewards = compute_rewards(1.0, 0.0)
    with pytest.raises(nk.ContractViolation):
        reinforce_update(g, [], rewards, Baseline(0.9), 0.1, _buffers(g))


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def test_oracle_constant_reward_zero_gradient():
    g = _toy_generator()
    value, grads = expected_reward_oracle(g, TOY_TOKENS, 1, lambda m: 0.7)
    assert abs(value - 0.7) <= 1e-12
    assert np.abs(ptree.flatten(grads)).max() <= 1e-12


def test_oracle_single_unit_closed_form():
    g = _toy_generator()
    tokens = np.array([2])
    value, _ = expected_reward_oracle(g, tokens, 1, lambda m: float(m[0][0, 0]))
    scores, _, _ = gnet_scores(g, tokens, 1)
    assert abs(value - 1 / (1 + math.exp(-scores[0][0, 0] / g.tau))) <= 1e-12


def test_oracle_gradient_matches_finite_differences():
    g = _toy_generator()
    reward_fn = _random_reward_table()
    _, grads = expected_reward_oracle(g, TOY_TOKENS, 1, reward_fn)
    norm = 1 * TOY_TOKENS.size ** 2

    def objective(p):
        value, _ = expected_reward_oracle(p, TOY_TOKENS, 1, reward_fn)
        return value

    fd = tree_finite_diff(g, objective, h=3e-6) / norm
    assert max_rel_err(ptree.flatten(grads), fd, floor=1e-9) <= 1e-6


def test_oracle_enumeration_bound():
    g = init_generator(GeneratorConfig(5, 3, 1.0), 1)
    with pytest.raises(nk.OracleError):
        expected_reward_oracle(g, np.array([1, 2, 3, 4]), 2, lambda m: 0.0)


# ---------------------------------------------------------------------------
# estimator properties (Monte Carlo)
# ---------------------------------------------------------------------------


def _mc_updates(g, reward_fn, baseline_value, n_samples, seed):
    """Stream of single-sample update directions grad_logprob * (r - b)."""
    rng = nk.RngState(seed).derive("mc")
    total = None
    total_sq = None
    for _ in range(n_samples):
        decision = gnet_sample_masks(g, TOY_TOKENS, 1, rng)
        reward = reward_fn(decision.masks)
        vec = ptree.flatten(logprob_grad(g, TOY_TOKENS, decision))
        vec = vec * (reward - baseline_value)
        if total is None:
            total = vec.copy()
            total_sq = vec * vec
        else:
            total += vec
            total_sq += vec * vec
    mean = total / n_samples
    var = total_sq / n_samples - mean ** 2
    return mean, var


def test_score_function_identity_empirical():
    # constant reward, b = 0: expected update is zero
    g = _toy_generator()
    n = 8000
    mean, var = _mc_updates(g, lambda m: 1.0, 0.0, n, seed=3)
    se = np.sqrt(var / n)
    assert np.all(np.abs(mean) <= 3 * se + 1e-12)


def test_sampled_updates_are_unbiased():
    g = _toy_generator()
    reward_fn = _random_reward_table()
    _, oracle = expected_reward_oracle(g, TOY_TOKENS, 1, reward_fn)
    exact = ptree.flatten(oracle)
    n = 8000
    mean, var = _mc_updates(g, reward_fn, 0.0, n, seed=4)
    se = np.sqrt(var / n)
    dev = np.abs(mean - exact)
    assert np.all((dev <= 0.02 * np.abs(exact)) | (dev <= 3 * se + 1e-15))


def test_baseline_shifts_variance_not_mean():
    g = _toy_generator()
    reward_fn = _random_reward_table()
    n = 8000
    mean_b0, var_b0 = _mc_updates(g, reward_fn, 0.0, n, seed=5)
    mean_b5, var_b5 = _mc_updates(g, reward_fn, 0.5, n, seed=6)
    se = np.sqrt((var_b0 + var_b5) / n)
    assert np.all(np.abs(mean_b0 - mean_b5) <= 4 * se + 1e-12)


def test_moving_average_baseline_reduces_variance():
    # rewards in [0, 1] with mean well away from zero: centering helps
    g = _toy_generator()
    reward_fn = _random_reward_table()
    value, _ = expected_reward_oracle(g, TOY_TOKENS, 1, reward_fn)
    # a converged moving average sits at the mean reward
    n = 8000
    _, var_b0 = _mc_updates(g, reward_fn, 0.0, n, seed=7)
    _, var_ma = _mc_updates(g, reward_fn, value, n, seed=7)
    assert var_ma.sum() <= var_b0.sum()
