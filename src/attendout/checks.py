"""Finite-difference and enumeration verification suites.

Each suite compares an analytic gradient against an independent oracle
(central differences, or exhaustive mask enumeration) and reports the worst
relative error per tensor. The CLI gradcheck command runs all of them; a
deliberately corrupted tensor name can be injected to prove the harness
actually fails loudly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import ptree
from .attention import AttentionParams, MaskMatrix, attn_backward, attn_forward
from .models import (
    GeneratorConfig,
    ModelConfig,
    gnet_logprob_backward,
    gnet_sample_masks,
    decision_logprob,
    init_generator,
    init_task_model,
    task_backward,
    task_forward,
)
from .numkernel import RngState, cross_entropy_logits, finite_diff_grad
from .policygrad import expected_reward_oracle

GRAD_TOLERANCE = 1e-4
ORACLE_TOLERANCE = 1e-6
_REL_FLOOR = 1e-6


@dataclass
class CheckReport:
    suite: str
    tensor: str
    max_rel_err: float
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _max_rel_err(analytic: np.ndarray, reference: np.ndarray) -> float:
    denom = np.maximum(np.abs(reference), _REL_FLOOR)
    return float((np.abs(analytic - reference) / denom).max())


def _per_tensor_errors(grads, fd_flat, corrupt: str | None):
    """Worst error per named tensor of the analytic gradient tree."""
    fd = ptree.zeros_like(grads)
    ptree.set_flat(fd, fd_flat)
    out = []
    for (name, an), (_, ref) in zip(ptree.iter_arrays(grads), ptree.iter_arrays(fd)):
        if corrupt == name:
            an = an + 0.5 * (1.0 + np.abs(an))
        out.append((name, _max_rel_err(an, ref)))
    return out


def _tree_fd(params, objective, h: float) -> np.ndarray:
    """Central differences of objective(tree) over every parameter."""
    probe = ptree.copy_tree(params)

    def flat_objective(vec):
        ptree.set_flat(probe, vec)
        return objective(probe)

    return finite_diff_grad(flat_objective, ptree.flatten(params), h)


def gradcheck_attention(seed: int = 0, h: float = 1e-5,
                        corrupt: str | None = None) -> list[CheckReport]:
    """No mask and the three mask modes on an L=4, d=8, two-head layer."""
    reports = []
    length, d = 4, 8
    rng = RngState(seed).derive("check-attn")
    bits = (rng.uniform_array(length * length).reshape(length, length) < 0.3).astype(np.uint8)
    modes = {
        "none": None,
        "scores": MaskMatrix.from_drop_bits(bits),
        "weights": MaskMatrix.weights_from_drop_bits(bits),
        "all_dropped": MaskMatrix.all_dropped(),
    }
    for mode_name, mask in modes.items():
        t0 = time.time()
        r = RngState(seed).derive(f"check-attn-{mode_name}")
        params = AttentionParams(
            r.normal_array((d, d)) * 0.5, r.normal_array((d, d)) * 0.5,
            r.normal_array((d, d)) * 0.5, r.normal_array((d, d)) * 0.5,
            num_heads=2,
        )
        x = r.normal_array((length, d)) * 0.5
        dy = r.normal_array((length, d)) * 0.5
        _, cache = attn_forward(x, params, mask)
        grads = ptree.zeros_like(params)
        attn_backward(cache, dy, grads)
        fd = _tree_fd(params, lambda p: float((dy * attn_forward(x, p, mask)[0]).sum()), h)
        for name, err in _per_tensor_errors(grads, fd, corrupt):
            reports.append(CheckReport(f"attention[{mode_name}]", name, err,
                                       GRAD_TOLERANCE, time.time() - t0))
    return reports


def gradcheck_task_model(seed: int = 0, h: float = 1e-5,
                         corrupt: str | None = None) -> list[CheckReport]:
    """Full model, cross-entropy objective: 2 layers, d_model 16, d_ff 32,
    sequence length 8, every parameter checked."""
    t0 = time.time()
    cfg = ModelConfig(vocab_size=12, max_len=8, num_layers=2, d_model=16,
                      d_ff=32, num_heads=2, num_classes=3)
    params = init_task_model(cfg, seed)
    rng = RngState(seed).derive("check-task")
    tokens = np.array([0] + [1 + rng.randint(cfg.vocab_size - 1) for _ in range(7)])
    label = [rng.randint(cfg.num_classes)]

    logits, cache = task_forward(params, tokens)
    _, dlogits = cross_entropy_logits(logits, label)
    grads = ptree.zeros_like(params)
    task_backward(cache, dlogits, grads)
    fd = _tree_fd(params, lambda p: cross_entropy_logits(task_forward(p, tokens)[0], label)[0], h)
    elapsed = time.time() - t0
    return [CheckReport("task_model", name, err, GRAD_TOLERANCE, elapsed)
            for name, err in _per_tensor_errors(grads, fd, corrupt)]


def gradcheck_generator(seed: int = 0, h: float = 1e-5,
                        corrupt: str | None = None) -> list[CheckReport]:
    """Log-probability gradient of a sampled decision: 2 layers, L=3, d_g=8."""
    t0 = time.time()
    gparams = init_generator(GeneratorConfig(vocab_size=9, dim=8, tau=1.0), seed)
    rng = RngState(seed).derive("check-gnet")
    tokens = np.array([1 + rng.randint(8) for _ in range(3)])
    decision = gnet_sample_masks(gparams, tokens, 2, rng)
    grads = ptree.zeros_like(gparams)
    gnet_logprob_backward(gparams, tokens, decision, grads)
    fd = _tree_fd(gparams, lambda p: decision_logprob(p, tokens, decision), h)
    elapsed = time.time() - t0
    return [CheckReport("generator_logprob", name, err, GRAD_TOLERANCE, elapsed)
            for name, err in _per_tensor_errors(grads, fd, corrupt)]


def check_reinforce_enumeration(seed: int = 0, h: float = 3e-6,
                                corrupt: str | None = None) -> list[CheckReport]:
    """Exact expected-reward gradient versus central differences of the
    enumerated objective (one layer, L=2, sixteen masks, random rewards).

    The oracle's gradient carries the estimator's 1 / (N * L^2)
    normalization; the finite-difference side is scaled to match.
    """
    t0 = time.time()
    gparams = init_generator(GeneratorConfig(vocab_size=5, dim=3, tau=1.0), seed)
    tokens = np.array([1, 3])
    norm = 1 * tokens.size ** 2
    table_rng = RngState(seed).derive("check-rewards")
    table = {
        idx: table_rng.uniform() for idx in range(16)
    }

    def reward_fn(masks):
        bits = masks[0].ravel()
        idx = int(bits[0]) | int(bits[1]) << 1 | int(bits[2]) << 2 | int(bits[3]) << 3
        return table[idx]

    _, grads = expected_reward_oracle(gparams, tokens, 1, reward_fn)
    fd = _tree_fd(gparams, lambda p: expected_reward_oracle(p, tokens, 1, reward_fn)[0], h) / norm
    elapsed = time.time() - t0
    return [CheckReport("reinforce_enumeration", name, err, ORACLE_TOLERANCE, elapsed)
            for name, err in _per_tensor_errors(grads, fd, corrupt)]


def run_all_checks(seed: int = 0, corrupt: str | None = None) -> list[CheckReport]:
    reports = []
    reports += gradcheck_attention(seed, corrupt=corrupt)
    reports += gradcheck_task_model(seed, corrupt=corrupt)
    reports += gradcheck_generator(seed, corrupt=corrupt)
    reports += check_reinforce_enumeration(seed, corrupt=corrupt)
    return reports
