"""Policy-gradient machinery for the generator.

The generator is rewarded once per dropout step by the outcome of the
defender/attacker game: attacker scoring higher earns +1, lower earns -1,
a tie earns 0 (a "gap" scheme using the raw score difference is available
as a config option). The moving-average baseline absorbs r first, so b
below is the updated baseline and r - b = decay * (r - b_prev): zero on
the first window, which seeds b with r, and nonzero on a tie (r = 0)
whenever b_prev is. The update itself is plain gradient ascent,

    theta <- theta + lr * (r - b) * sum_t grad_logprob_t

over every decision sampled in the window, with each grad_logprob already
carrying the per-unit 1 / (N * L^2) normalization; each step's decisions
take one stacked backward into per-decision rows, summed in decision order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ptree
from .models import (
    GeneratorParams,
    gnet_backward_from_score_grads,
    gnet_logprob_backward,
    gnet_scores,
)
from .numkernel import ContractViolation, OracleError, sigmoid

WIN_ATTACKER = "attacker"
WIN_DEFENDER = "defender"
WIN_TIE = "tie"

ENUMERATION_LIMIT = 20


@dataclass
class RewardRecord:
    reward: float
    eval_attacker: float
    eval_defender: float
    win: str


@dataclass
class Baseline:
    """Moving average of observed rewards."""

    decay: float
    value: float = 0.0
    initialized: bool = False

    def __post_init__(self):
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")


def compute_rewards(eval_attacker: float, eval_defender: float,
                    scheme: str = "signed") -> RewardRecord:
    """Score one dropout step's game outcome."""
    for name, v in (("eval_attacker", eval_attacker), ("eval_defender", eval_defender)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be a score in [0, 1], got {v}")
    gap = eval_attacker - eval_defender
    if gap > 0:
        win = WIN_ATTACKER
    elif gap < 0:
        win = WIN_DEFENDER
    else:
        win = WIN_TIE
    if scheme == "signed":
        r = float(np.sign(gap))
    elif scheme == "gap":
        r = float(gap)
    else:
        raise ValueError(f"unknown reward scheme {scheme!r}")
    return RewardRecord(r, eval_attacker, eval_defender, win)


def update_baseline(baseline: Baseline, rewards: RewardRecord) -> Baseline:
    """First observation seeds the average; later ones decay into it."""
    r = rewards.reward
    if not baseline.initialized:
        return Baseline(baseline.decay, r, True)
    new = baseline.decay * baseline.value + (1.0 - baseline.decay) * r
    return Baseline(baseline.decay, new, True)


def reinforce_update(gparams: GeneratorParams, decisions, rewards: RewardRecord,
                     baseline: Baseline, lr: float, total: GeneratorParams) -> GeneratorParams:
    """Apply one score-function ascent step in place and return the params.

    decisions yields (tokens, MaskDecision) pairs of one sequence (L,) or a
    stack (B, L), and its length counts sequences; all share the advantage
    of rewards.reward. A pair takes one stacked backward into zeroed
    per-decision rows, which are scaled and added in decision order into
    total, a caller-owned tree zeroed here: the float order of one fresh
    tree per decision. gparams must be the parameters the decisions were
    sampled under, since their scores are recomputed.
    """
    if not decisions:
        raise ContractViolation("reinforce update needs at least one decision")
    advantage = rewards.reward - baseline.value
    if advantage == 0.0:
        return gparams
    total.flat.fill(0.0)
    for tokens, decision in decisions:
        rows = ptree.zeros_stack(gparams, np.shape(tokens)[:-1])
        gnet_logprob_backward(gparams, tokens, decision, rows)
        ptree.add_items(total.flat, advantage * rows.flat)
    ptree.add_scaled(gparams, total, lr)
    return gparams


def expected_reward_oracle(gparams: GeneratorParams, tokens, num_layers: int,
                           reward_fn):
    """Exact E[R] and its gradient by enumerating every mask.

    Test-only brute force, bounded at 2^20 masks. reward_fn receives one
    mask's drop bits as an (N, L, L) uint8 array, layer first. The returned
    gradient uses the same 1 / (N * L^2) normalization as the sampled
    estimator, so the mean of sampled updates converges to it directly.
    """
    scores, caches, tokens = gnet_scores(gparams, tokens, num_layers)
    units = scores.size
    if units > ENUMERATION_LIMIT:
        raise OracleError(f"{units} units exceeds enumeration bound {ENUMERATION_LIMIT}")
    probs = sigmoid(scores / gparams.tau).ravel()

    count = 1 << units
    patterns = (np.arange(count)[:, None] >> np.arange(units)[None, :]) & 1
    log_p = patterns @ np.log(probs) + (1 - patterns) @ np.log1p(-probs)
    mask_probs = np.exp(log_p)

    rewards = np.empty(count)
    for idx in range(count):
        rewards[idx] = reward_fn(patterns[idx].reshape(scores.shape).astype(np.uint8))

    weights = mask_probs * rewards
    expected = float(weights.sum())

    # d logprob / d score is linear in the bits, so the weighted sum over
    # masks collapses before the (linear) backward pass.
    d_units = (weights @ patterns - weights.sum() * probs) / (gparams.tau * units)
    grads = ptree.zeros_like(gparams)
    gnet_backward_from_score_grads(tokens, caches, d_units.reshape(scores.shape), grads)
    return expected, grads
