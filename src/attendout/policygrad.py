"""Policy-gradient machinery for the generator.

The generator is rewarded once per dropout step by the outcome of the
defender/attacker game: attacker scoring higher earns +1, lower earns -1,
a tie earns 0 (a "gap" scheme using the raw score difference is available
as a config option). A moving-average baseline is subtracted before the
score-function update; it shifts variance, not the expected update. The
update itself is plain gradient ascent,

    theta <- theta + lr * (r - b) * sum_t grad_logprob_t

over every decision sampled in the step, with each grad_logprob already
carrying the per-unit 1 / (N * L^2) normalization.
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

    value: float = 0.0
    decay: float = 0.9
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
        return Baseline(r, baseline.decay, True)
    new = baseline.decay * baseline.value + (1.0 - baseline.decay) * r
    return Baseline(new, baseline.decay, True)


def reinforce_update(gparams: GeneratorParams, decisions, rewards: RewardRecord,
                     baseline: Baseline, lr: float) -> GeneratorParams:
    """Apply one score-function ascent step in place and return the params.

    decisions is the step's list of (tokens, MaskDecision) pairs, one per
    sample; they all share the one advantage of rewards.reward.
    """
    if not decisions:
        raise ContractViolation("reinforce update needs at least one decision")
    advantage = rewards.reward - baseline.value
    if advantage == 0.0:
        return gparams
    total = ptree.zeros_like(gparams)
    grad = ptree.zeros_like(gparams)
    for tokens, decision in decisions:
        # each decision's gradient is summed alone before it is scaled into
        # total, so the float order matches one fresh tree per decision
        grad.flat.fill(0.0)
        gnet_logprob_backward(gparams, tokens, decision, grad)
        ptree.add_scaled(total, grad, advantage)
    ptree.add_scaled(gparams, total, lr)
    return gparams


def expected_reward_oracle(gparams: GeneratorParams, tokens, num_layers: int,
                           reward_fn):
    """Exact E[R] and its gradient by enumerating every mask.

    Test-only brute force, bounded at 2^20 masks. reward_fn receives the
    list of per-layer drop-bit matrices. The returned gradient uses the
    same 1 / (N * L^2) normalization as the sampled estimator, so the mean
    of sampled updates converges to it directly.
    """
    scores, caches, tokens = gnet_scores(gparams, tokens, num_layers)
    length = tokens.size
    units = num_layers * length * length
    if units > ENUMERATION_LIMIT:
        raise OracleError(f"{units} units exceeds enumeration bound {ENUMERATION_LIMIT}")
    probs = np.concatenate([sigmoid(s / gparams.tau).ravel() for s in scores])

    count = 1 << units
    patterns = (np.arange(count)[:, None] >> np.arange(units)[None, :]) & 1
    log_p = patterns @ np.log(probs) + (1 - patterns) @ np.log1p(-probs)
    mask_probs = np.exp(log_p)

    rewards = np.empty(count)
    for idx in range(count):
        bits = patterns[idx].reshape(num_layers, length, length).astype(np.uint8)
        rewards[idx] = reward_fn(list(bits))

    weights = mask_probs * rewards
    expected = float(weights.sum())

    # d logprob / d score is linear in the bits, so the weighted sum over
    # masks collapses before the (linear) backward pass.
    norm = units
    d_units = (weights @ patterns - weights.sum() * probs) / (gparams.tau * norm)
    dscores = [
        d_units[i * length * length:(i + 1) * length * length].reshape(length, length)
        for i in range(num_layers)
    ]
    grads = ptree.zeros_like(gparams)
    gnet_backward_from_score_grads(tokens, caches, dscores, grads)
    return expected, grads
