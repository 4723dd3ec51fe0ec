import numpy as np
import pytest

from attendout import ptree
from attendout.attention import AttentionParams
from attendout.models import gnet_logprob_backward
from attendout.numkernel import RngState, ShapeError, log_sigmoid


def rand_attention(seed: int, d: int = 8, heads: int = 2, scale: float = 0.5) -> AttentionParams:
    r = RngState(seed).derive("fixture-attn")
    return AttentionParams(
        r.normal_array((d, d)) * scale, r.normal_array((d, d)) * scale,
        r.normal_array((d, d)) * scale, r.normal_array((d, d)) * scale,
        num_heads=heads,
    )


def max_rel_err(analytic: np.ndarray, reference: np.ndarray, floor: float = 1e-6) -> float:
    analytic = np.asarray(analytic, dtype=float).ravel()
    reference = np.asarray(reference, dtype=float).ravel()
    return float((np.abs(analytic - reference) / np.maximum(np.abs(reference), floor)).max())


def tree_finite_diff(params, objective, h: float = 1e-5):
    """Central differences of a scalar objective over every tree leaf."""
    from attendout.numkernel import finite_diff_grad

    probe = ptree.copy_tree(params)

    def flat_objective(vec):
        ptree.set_flat(probe, vec)
        return objective(probe)

    return finite_diff_grad(flat_objective, ptree.flatten(params), h)


def logprob_grad(gparams, tokens, decision):
    """A decision's logprob gradient in a fresh tree of its own."""
    grads = ptree.zeros_like(gparams)
    gnet_logprob_backward(gparams, tokens, decision, grads)
    return grads


@pytest.fixture
def rng():
    return RngState(12345)


def softmax_rows_reference(m: np.ndarray) -> np.ndarray:
    """Row softmax that zeroes dropped entries itself: entries at or below
    -1e29 count as dropped and a fully dropped row raises. numkernel's
    plain softmax_rows must match it bit for bit on rows that keep a unit."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D input, got shape {m.shape}")
    dropped = m <= -1e29
    if np.any(dropped.all(axis=1)):
        rows = np.flatnonzero(dropped.all(axis=1))
        raise ValueError(f"row(s) {rows.tolist()} have every unit dropped")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    e[dropped] = 0.0
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Scalar samplers: the one-draw-at-a-time references that the vectorized
# numkernel samplers must match bit for bit and counter for counter.
# ---------------------------------------------------------------------------


def sample_bernoulli(p: float, rng: RngState) -> int:
    """1 with probability p; consumes exactly one draw."""
    return 1 if rng.uniform() < p else 0


def _gumbel(rng: RngState) -> float:
    """Standard Gumbel(0, 1) from one open-interval uniform draw."""
    u = ((rng.next_u64() >> 12) + 0.5) * 2.0**-52
    return float(-np.log(-np.log(u)))


def gumbel_binary_sample(logit: float, rng: RngState) -> tuple[int, float]:
    """Gumbel-max over the two logits {logit, 0}: the sampled bit and the log
    probability of the action taken; consumes two draws."""
    g_one = _gumbel(rng)
    g_zero = _gumbel(rng)
    bit = 1 if logit + g_one > g_zero else 0
    return bit, float(log_sigmoid(logit if bit else -logit))


# ---------------------------------------------------------------------------
# Kernel references: the earlier, slower forms that numkernel's GELU and
# tasks' block-drawn dataset generator are checked against.
# ---------------------------------------------------------------------------


def gelu_reference(x: np.ndarray) -> np.ndarray:
    """Tanh-form GELU with the cube taken by np.power."""
    x = np.asarray(x, dtype=np.float64)
    u = np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + np.tanh(u))


def gelu_grad_reference(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    c = np.sqrt(2.0 / np.pi)
    u = c * (x + 0.044715 * x**3)
    t = np.tanh(u)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x**2)


def gen_majority_token_reference(n: int, seq_len: int, vocab_size: int, seed: int):
    """The majority task drawn one rejection-sampling candidate per
    uniform_array call; gen_majority_token must give the same examples."""
    from attendout.tasks import CLS_ID, TOKEN_A, TOKEN_B

    rng = RngState(seed).derive("majority-token")
    body = seq_len - 1
    examples = []
    for i in range(n):
        want = i % 2
        while True:
            toks = np.empty(seq_len, dtype=np.int64)
            toks[0] = CLS_ID
            toks[1:] = np.floor(
                rng.uniform_array(body) * (vocab_size - 1)
            ).astype(np.int64) + 1
            count_a = int(np.sum(toks[1:] == TOKEN_A))
            count_b = int(np.sum(toks[1:] == TOKEN_B))
            if count_a == count_b:
                continue
            label = 1 if count_a > count_b else 0
            if label == want:
                examples.append((toks, label))
                break
    return examples
