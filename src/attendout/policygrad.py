"""Policy-gradient machinery for the generator.

The generator is rewarded by the outcome of the defender/attacker game:
attacker scoring higher earns +1 for every sample of the dropout step,
lower earns -1, a tie earns 0 (a "gap" scheme using the raw score
difference is available as a config option). A moving-average baseline is
subtracted before the score-function update; it shifts variance, not the
expected update. The update itself is plain gradient ascent,

    theta <- theta + lr * sum_t grad_logprob_t * (r_t - b)

over one sampled trajectory per step, with each grad_logprob already
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
    per_sample: np.ndarray
    eval_attacker: float
    eval_defender: float
    win: str

    @property
    def mean(self) -> float:
        return float(self.per_sample.mean())


@dataclass
class Baseline:
    """Moving average of observed mean rewards."""

    value: float = 0.0
    decay: float = 0.9
    initialized: bool = False

    def __post_init__(self):
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")


def compute_rewards(eval_attacker: float, eval_defender: float, count: int,
                    scheme: str = "signed") -> RewardRecord:
    """Broadcast the step-level game outcome to every sample of the step."""
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
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
    return RewardRecord(np.full(count, r), eval_attacker, eval_defender, win)


def update_baseline(baseline: Baseline, rewards: RewardRecord) -> Baseline:
    """First observation seeds the average; later ones decay into it."""
    mean = rewards.mean
    if not baseline.initialized:
        return Baseline(mean, baseline.decay, True)
    new = baseline.decay * baseline.value + (1.0 - baseline.decay) * mean
    return Baseline(new, baseline.decay, True)


def reinforce_update(gparams: GeneratorParams, decisions, rewards: RewardRecord,
                     baseline: Baseline, lr: float) -> GeneratorParams:
    """Apply one score-function ascent step in place and return the params.

    decisions is a list of (tokens, MaskDecision) pairs, one per sample,
    aligned with rewards.per_sample.
    """
    if len(decisions) != rewards.per_sample.size:
        raise ContractViolation(
            f"{len(decisions)} decisions vs {rewards.per_sample.size} rewards"
        )
    total = ptree.zeros_like(gparams)
    for (tokens, decision), r in zip(decisions, rewards.per_sample):
        advantage = float(r) - baseline.value
        if advantage == 0.0:
            continue
        grad = gnet_logprob_backward(gparams, tokens, decision)
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
    return expected, gnet_backward_from_score_grads(gparams, tokens, caches, dscores)
