from dataclasses import dataclass

import numpy as np
import pytest

from attendout import models, ptree
from attendout.attention import AttentionParams
from attendout.models import gnet_logprob_backward
from attendout.numkernel import (
    _MASK64,
    ContractViolation,
    RngState,
    ShapeError,
    _splitmix64,
    gumbel_binary_sample_array,
    log_sigmoid,
    sigmoid,
)


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
# numkernel samplers must match bit for bit and counter for counter. The
# word path is RngState's former scalar twin: one pure-Python SplitMix64
# word per call, read from and advancing the counter of any RngState.
# ---------------------------------------------------------------------------


def _mix(seed: int, stream: int, counter: int) -> int:
    h = _splitmix64(seed)
    h = _splitmix64(h ^ stream)
    return _splitmix64(h ^ counter)


def scalar_next_u64(rng: RngState) -> int:
    v = _mix(rng.seed, rng.stream, rng.counter)
    rng.counter = (rng.counter + 1) & _MASK64
    return v


def scalar_uniform(rng: RngState) -> float:
    """One draw, uniform on [0, 1)."""
    return (scalar_next_u64(rng) >> 11) * 2.0**-53


def scalar_randint(rng: RngState, n: int) -> int:
    """Uniform integer in [0, n) by rejection (no modulo bias)."""
    if n <= 0:
        raise ValueError(f"randint needs n >= 1, got {n}")
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        v = scalar_next_u64(rng)
        if v < limit:
            return v % n


def scalar_permutation(rng: RngState, n: int) -> np.ndarray:
    out = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = scalar_randint(rng, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def scalar_choice_without_replacement(rng: RngState, n: int, k: int) -> np.ndarray:
    """First k entries of a partial Fisher-Yates shuffle of range(n)."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} of {n} without replacement")
    pool = np.arange(n)
    for i in range(k):
        j = i + scalar_randint(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k].copy()


def sample_bernoulli(p: float, rng: RngState) -> int:
    """1 with probability p; consumes exactly one draw."""
    return 1 if scalar_uniform(rng) < p else 0


def _gumbel(rng: RngState) -> float:
    """Standard Gumbel(0, 1) from one open-interval uniform draw."""
    u = ((scalar_next_u64(rng) >> 12) + 0.5) * 2.0**-52
    return float(-np.log(-np.log(u)))


def gumbel_binary_sample(logit: float, rng: RngState) -> tuple[int, float]:
    """Gumbel-max over the two logits {logit, 0}: the sampled bit and the log
    probability of the action taken; consumes two draws."""
    g_one = _gumbel(rng)
    g_zero = _gumbel(rng)
    bit = 1 if logit + g_one > g_zero else 0
    return bit, float(log_sigmoid(logit if bit else -logit))


# ---------------------------------------------------------------------------
# Kernel references: the earlier, slower forms that numkernel's GELU, the
# token-embedding gradient, the optimizer step and tasks' block-drawn
# dataset generator are checked against.
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


def gelu_grad_recomputed_reference(x: np.ndarray) -> np.ndarray:
    """GELU's derivative computing its own tanh, as it did before gelu
    returned it: gelu_grad(x, gelu(x)[1]) must match it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    c = np.sqrt(2.0 / np.pi)
    x2 = x * x
    t = np.tanh(c * (x + 0.044715 * (x2 * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x2)


def token_embedding_grad_reference(tokens, dx: np.ndarray, vocab_size: int) -> np.ndarray:
    """One sequence's token-embedding gradient, repeated tokens summed by
    np.add.at into zeros: task_backward's one-hot product must give these
    bits."""
    dembed = np.zeros((vocab_size, dx.shape[1]))
    np.add.at(dembed, tokens, dx)
    return dembed


def optimizer_step_reference(params, grads, lr, state, slots):
    """The optimizer step one tensor at a time, with a fresh temporary for
    every intermediate value and its own moment slots; the whole-buffer
    step with scratch vectors must give the same bits."""
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


# ---------------------------------------------------------------------------
# Per-sequence path: the model as it ran before it took stacks, one token
# sequence (one L x d_model attention input) per call, with the folded last
# block, and the trainer's step and evaluate looping over rows. The stacked
# models.task_forward / task_backward, attention on a stack under a
# MaskStack, and the trainer's chunked step and evaluate must match it bit
# for bit, for any chunk size.
# ---------------------------------------------------------------------------


@dataclass
class SequenceAttentionCache:
    """Forward intermediates of one sequence's attention; q query rows of L."""

    mask: object
    params: AttentionParams
    x: np.ndarray
    pre: np.ndarray
    qh: np.ndarray | None = None
    kh: np.ndarray | None = None
    vh: np.ndarray | None = None
    scores: np.ndarray | None = None
    attn: np.ndarray | None = None
    attn_used: np.ndarray | None = None
    q_blocks: np.ndarray | None = None
    qk: np.ndarray | None = None
    ax: np.ndarray | None = None


def _split_heads_sequence(m, num_heads):
    length, d = m.shape
    return m.reshape(length, num_heads, d // num_heads).transpose(1, 0, 2)


def _merge_heads_sequence(t):
    num_heads, length, d_k = t.shape
    return t.transpose(1, 0, 2).reshape(length, num_heads * d_k)


def _block_diagonal_sequence(m, num_heads):
    rows, width = m.shape
    cols = width // num_heads
    out = np.zeros((num_heads * rows, width))
    for h in range(num_heads):
        out[h * rows:(h + 1) * rows, h * cols:(h + 1) * cols] = m[:, h * cols:(h + 1) * cols]
    return out


def _diagonal_blocks_sequence(m, num_heads):
    rows, width = m.shape[0] // num_heads, m.shape[1]
    cols = width // num_heads
    out = np.empty((rows, width))
    for h in range(num_heads):
        out[:, h * cols:(h + 1) * cols] = m[h * rows:(h + 1) * rows, h * cols:(h + 1) * cols]
    return out


def constant_attention_sequence(v):
    return np.tile(v.mean(axis=0), (v.shape[0], 1))


def attn_forward_sequence(x, params, mask=None, queries=None):
    from attendout.attention import MaskMode
    from attendout.numkernel import NEG_INF, softmax_rows

    length = x.shape[0]
    q = length if queries is None else queries
    mode, drop = (None, None) if mask is None else (mask.mode, mask.drop)
    if mode is MaskMode.ALL_DROPPED:
        pre = constant_attention_sequence(x @ params.w_v)[:q]
        return pre @ params.w_o, SequenceAttentionCache(mask, params, x, pre)
    num_heads, d_k = params.num_heads, params.d_k
    folded = q < length
    if folded:
        q_blocks = _block_diagonal_sequence(x[:q] @ params.w_q, num_heads)
        qk = q_blocks @ params.w_k.T
        scores = (qk @ x.T / np.sqrt(d_k)).reshape(num_heads, q, length)
    else:
        qh = _split_heads_sequence(x @ params.w_q, num_heads)
        kh = _split_heads_sequence(x @ params.w_k, num_heads)
        vh = _split_heads_sequence(x @ params.w_v, num_heads)
        scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(d_k)
    if mode is MaskMode.SCORES:
        scores = np.where(drop[:q], NEG_INF, scores)
    attn = softmax_rows(scores.reshape(num_heads * q, length)).reshape(num_heads, q, length)
    attn_used = None
    if mode is MaskMode.WEIGHTS:
        attn_used = np.where(drop[:q], 0.0, attn)
        if mask.rescale is not None:
            attn_used *= mask.rescale
    weights = attn if attn_used is None else attn_used
    if folded:
        ax = weights.reshape(num_heads * q, length) @ x
        pre = _diagonal_blocks_sequence(ax @ params.w_v, num_heads)
        cache = SequenceAttentionCache(mask, params, x, pre, scores=scores, attn=attn,
                                       attn_used=attn_used, q_blocks=q_blocks, qk=qk, ax=ax)
    else:
        pre = _merge_heads_sequence(weights @ vh)
        cache = SequenceAttentionCache(mask, params, x, pre, qh=qh, kh=kh, vh=vh,
                                       scores=scores, attn=attn, attn_used=attn_used)
    return pre @ params.w_o, cache


def attn_backward_sequence(cache, dy, grads):
    from attendout.attention import MaskMode

    params, mask = cache.params, cache.mask
    length = cache.x.shape[0]
    q = cache.pre.shape[0]
    mode = None if mask is None else mask.mode
    if mode is MaskMode.ALL_DROPPED:
        dpre = dy @ params.w_o.T
        grads.w_o += cache.pre.T @ dy
        dv = np.tile(dpre.sum(axis=0) / length, (length, 1))
        grads.w_v += cache.x.T @ dv
        return dv @ params.w_v.T
    num_heads, d_k = params.num_heads, params.d_k
    dpre = dy @ params.w_o.T
    grads.w_o += cache.pre.T @ dy
    attn_used = cache.attn_used if cache.attn_used is not None else cache.attn
    folded = cache.qk is not None
    if folded:
        dm = _block_diagonal_sequence(dpre, num_heads)
        grads.w_v += cache.ax.T @ dm
        dax = dm @ params.w_v.T
        d_attn_used = (dax @ cache.x.T).reshape(num_heads, q, length)
        dx_v = attn_used.reshape(num_heads * q, length).T @ dax
    else:
        dout_h = _split_heads_sequence(dpre, num_heads)
        d_attn_used = dout_h @ cache.vh.transpose(0, 2, 1)
        dvh = attn_used.transpose(0, 2, 1) @ dout_h
    d_attn = d_attn_used
    if mode is MaskMode.WEIGHTS:
        d_attn = np.where(mask.drop[:q], 0.0, d_attn_used)
        if mask.rescale is not None:
            d_attn *= mask.rescale
    attn = cache.attn
    dscores = attn * (d_attn - (d_attn * attn).sum(axis=2, keepdims=True))
    dscores = dscores / np.sqrt(d_k)
    if folded:
        ds = dscores.reshape(num_heads * q, length)
        dqk = ds @ cache.x
        grads.w_k += dqk.T @ cache.q_blocks
        dq = _diagonal_blocks_sequence(dqk @ params.w_k, num_heads)
        grads.w_q += cache.x[:q].T @ dq
        dx = ds.T @ cache.qk
        dx[:q] += dq @ params.w_q.T
        dx += dx_v
        return dx
    dq = _merge_heads_sequence(dscores @ cache.kh)
    dk = _merge_heads_sequence(dscores.transpose(0, 2, 1) @ cache.qh)
    dv = _merge_heads_sequence(dvh)
    grads.w_q += cache.x[:q].T @ dq
    grads.w_k += cache.x.T @ dk
    grads.w_v += cache.x.T @ dv
    dx = dk @ params.w_k.T
    dx[:q] += dq @ params.w_q.T
    dx += dv @ params.w_v.T
    return dx


def _ln_forward_sequence(x, gain, bias):
    from attendout.models import LN_EPS

    d = x.shape[1]
    xc = x - x.sum(axis=1, keepdims=True) / d
    var = (xc * xc).sum(axis=1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat = xc * inv_std
    return gain * x_hat + bias, (x_hat, inv_std)


def _ln_backward_sequence(cache, gain, dy):
    x_hat, inv_std = cache
    dx_hat = dy * gain
    d = dy.shape[1]
    dx = inv_std * (
        dx_hat
        - dx_hat.sum(axis=1, keepdims=True) / d
        - x_hat * ((dx_hat * x_hat).sum(axis=1, keepdims=True) / d)
    )
    return dx, (dy * x_hat).sum(axis=0), dy.sum(axis=0)


def task_forward_sequence(params, tokens, layer_masks=None, skip_blocks=None,
                          full_rows=False):
    """One sequence's (1 x C logits, cache): blocks is a per-block list of
    (attention cache, ln1, h1, ff_pre, ff_act, ff_tanh, ln2), None for a
    skipped block. With full_rows every block computes every query row,
    through attn_forward_reference, instead of folding the last block."""
    from attendout.numkernel import gelu

    tokens = np.asarray(tokens, dtype=np.int64)
    n = params.num_layers
    layer_masks = [None] * n if layer_masks is None else layer_masks
    skips = np.zeros(n, dtype=bool) if skip_blocks is None else np.asarray(skip_blocks, bool)
    last = max((i for i in range(n) if not skips[i]), default=-1)
    x = params.token_embedding[tokens] + params.position_embedding[:tokens.size]
    blocks = []
    for i, (layer, mask, skip) in enumerate(zip(params.layers, layer_masks, skips)):
        if skip:
            blocks.append(None)
            continue
        if full_rows:
            a, attn_cache = attn_forward_reference(x, layer.attn, mask)
        else:
            a, attn_cache = attn_forward_sequence(x, layer.attn, mask,
                                                  queries=1 if i == last else None)
        h1, ln1 = _ln_forward_sequence(x[:a.shape[0]] + a, layer.ln1_gain, layer.ln1_bias)
        ff_pre = h1 @ layer.ff_w1 + layer.ff_b1
        ff_act, ff_tanh = gelu(ff_pre)
        f = ff_act @ layer.ff_w2 + layer.ff_b2
        x, ln2 = _ln_forward_sequence(h1 + f, layer.ln2_gain, layer.ln2_bias)
        blocks.append((attn_cache, ln1, h1, ff_pre, ff_act, ff_tanh, ln2))
    logits = x[0:1] @ params.head_w + params.head_b
    return logits, (params, tokens, blocks, x, full_rows)


def task_backward_sequence(cache, dlogits, grads):
    from attendout.numkernel import gelu_grad

    params, tokens, blocks, x_final, full_rows = cache
    grads.head_w += x_final[0:1].T @ dlogits
    grads.head_b += dlogits[0]
    dx = np.zeros_like(x_final)
    dx[0] = (dlogits @ params.head_w.T)[0]
    backward = attn_backward_reference if full_rows else attn_backward_sequence
    for layer, glayer, block in zip(reversed(params.layers), reversed(grads.layers),
                                    reversed(blocks)):
        if block is None:
            continue
        attn_cache, ln1, h1, ff_pre, ff_act, ff_tanh, ln2 = block
        dr2, dg2, db2 = _ln_backward_sequence(ln2, layer.ln2_gain, dx)
        glayer.ln2_gain += dg2
        glayer.ln2_bias += db2
        glayer.ff_w2 += ff_act.T @ dr2
        glayer.ff_b2 += dr2.sum(axis=0)
        dpre = (dr2 @ layer.ff_w2.T) * gelu_grad(ff_pre, ff_tanh)
        glayer.ff_w1 += h1.T @ dpre
        glayer.ff_b1 += dpre.sum(axis=0)
        dr1, dg1, db1 = _ln_backward_sequence(ln1, layer.ln1_gain, dr2 + dpre @ layer.ff_w1.T)
        glayer.ln1_gain += dg1
        glayer.ln1_bias += db1
        dx = backward(attn_cache, dr1, glayer.attn)
        dx[:dr1.shape[0]] += dr1
    onehot = tokens == np.arange(params.config.vocab_size)[:, None]
    grads.token_embedding += onehot.astype(np.float64) @ dx
    grads.position_embedding[:tokens.size] += dx


def update_on_batch_sequence(params, batch, lr, opt_state, item_masks=None, skip_blocks=None,
                             full_rows=False):
    """The trainer's step one row at a time: every forward, the batch loss,
    then every row's backward into the cleared tree in row order."""
    from attendout import trainer
    from attendout.numkernel import DivergenceError, cross_entropy_logits

    item_masks = [None] * len(batch) if item_masks is None else item_masks
    logits_rows, caches = [], []
    for tokens, layer_masks in zip(batch.tokens, item_masks):
        logits, cache = task_forward_sequence(params, tokens, layer_masks, skip_blocks,
                                              full_rows)
        logits_rows.append(logits[0])
        caches.append(cache)
    loss, dlogits = cross_entropy_logits(np.stack(logits_rows), batch.labels)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite batch loss {loss}")
    grads = opt_state.grads
    grads.flat.fill(0.0)
    for i, cache in enumerate(caches):
        task_backward_sequence(cache, dlogits[i:i + 1], grads)
    trainer.optimizer_step(params, grads, lr, opt_state)
    return loss


def evaluate_sequence(params, samples, full_rows=False):
    correct = 0
    for tokens, label in zip(samples.tokens, samples.labels):
        logits, _ = task_forward_sequence(params, tokens, full_rows=full_rows)
        correct += int(np.argmax(logits[0]) == label)
    return correct / len(samples)


# ---------------------------------------------------------------------------
# Full-row references: attention and the task model computing every query
# row of every block, with layer-norm row means taken by np.mean. The
# pruned last block of models.task_forward must match them to 1e-12.
# The attention references apply a mask as float entries (additive
# {0, NEG_INF} on the scores, multiplicative {0, 1} keep weights after the
# softmax) and copy every head out contiguously; attn_forward, which applies
# the drop bits by np.where and splits heads as views, must match them bit
# for bit, with every row and, given the same queries=q, with q < L.
# ---------------------------------------------------------------------------


def mask_entries_reference(mask):
    """A SCORES or WEIGHTS mask's drop bits as the float entries above."""
    from attendout.attention import MaskMode
    from attendout.numkernel import NEG_INF

    if mask.mode is MaskMode.SCORES:
        return np.where(mask.drop, NEG_INF, 0.0)
    return (~mask.drop).astype(np.float64)


def _split_heads_reference(m, num_heads):
    length, d = m.shape
    return np.ascontiguousarray(m.reshape(length, num_heads, d // num_heads).transpose(1, 0, 2))


def _merge_heads_reference(t):
    num_heads, length, d_k = t.shape
    return np.ascontiguousarray(t.transpose(1, 0, 2).reshape(length, num_heads * d_k))


def attn_forward_reference(x, params, mask=None, queries=None):
    from attendout.attention import MaskMode
    from attendout.numkernel import softmax_rows

    length = x.shape[0]
    q = length if queries is None else queries
    mode = None if mask is None else mask.mode
    if mode is MaskMode.ALL_DROPPED:
        pre = constant_attention_sequence(x @ params.w_v)[:q]
        return pre @ params.w_o, SequenceAttentionCache(mask, params, x, pre)
    entries = None if mode is None else mask_entries_reference(mask)[None, :q, :]
    num_heads, d_k = params.num_heads, params.d_k
    if q < length:
        q_blocks = _block_diagonal_sequence(x[:q] @ params.w_q, num_heads)
        qk = q_blocks @ params.w_k.T
        scores = (qk @ x.T / np.sqrt(d_k)).reshape(num_heads, q, length)
    else:
        qh = _split_heads_reference(x @ params.w_q, num_heads)
        kh = _split_heads_reference(x @ params.w_k, num_heads)
        vh = _split_heads_reference(x @ params.w_v, num_heads)
        scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(d_k)
    if mode is MaskMode.SCORES:
        scores = scores + entries
    attn = softmax_rows(scores.reshape(num_heads * q, length)).reshape(num_heads, q, length)
    attn_used = None
    if mode is MaskMode.WEIGHTS:
        attn_used = attn * entries
        if mask.rescale is not None:
            attn_used = attn_used * mask.rescale
    weights = attn if attn_used is None else attn_used
    if q < length:
        ax = weights.reshape(num_heads * q, length) @ x
        pre = _diagonal_blocks_sequence(ax @ params.w_v, num_heads)
        return pre @ params.w_o, SequenceAttentionCache(
            mask, params, x, pre, scores=scores, attn=attn, attn_used=attn_used,
            q_blocks=q_blocks, qk=qk, ax=ax)
    pre = _merge_heads_reference(weights @ vh)
    return pre @ params.w_o, SequenceAttentionCache(mask, params, x, pre, qh=qh, kh=kh, vh=vh,
                                                    scores=scores, attn=attn,
                                                    attn_used=attn_used)


def attn_backward_reference(cache, dy, grads):
    from attendout.attention import MaskMode

    params, mask = cache.params, cache.mask
    length = cache.x.shape[0]
    q = cache.pre.shape[0]
    num_heads = params.num_heads
    mode = None if mask is None else mask.mode
    dpre = dy @ params.w_o.T
    grads.w_o += cache.pre.T @ dy
    if mode is MaskMode.ALL_DROPPED:
        dv = np.tile(dpre.sum(axis=0) / length, (length, 1))
        grads.w_v += cache.x.T @ dv
        return dv @ params.w_v.T
    attn_used = cache.attn_used if cache.attn_used is not None else cache.attn
    if cache.qk is not None:
        dm = _block_diagonal_sequence(dpre, num_heads)
        grads.w_v += cache.ax.T @ dm
        dax = dm @ params.w_v.T
        d_attn = (dax @ cache.x.T).reshape(num_heads, q, length)
        dx_v = attn_used.reshape(num_heads * q, length).T @ dax
    else:
        dout_h = _split_heads_reference(dpre, num_heads)
        d_attn = dout_h @ cache.vh.transpose(0, 2, 1)
        dvh = attn_used.transpose(0, 2, 1) @ dout_h
    if mode is MaskMode.WEIGHTS:
        d_attn = d_attn * mask_entries_reference(mask)[None, :q, :]
        if mask.rescale is not None:
            d_attn = d_attn * mask.rescale
    attn = cache.attn
    dscores = attn * (d_attn - (d_attn * attn).sum(axis=2, keepdims=True)) / np.sqrt(params.d_k)
    if cache.qk is not None:
        ds = dscores.reshape(num_heads * q, length)
        dqk = ds @ cache.x
        grads.w_k += dqk.T @ cache.q_blocks
        dq = _diagonal_blocks_sequence(dqk @ params.w_k, num_heads)
        grads.w_q += cache.x[:q].T @ dq
        dx = ds.T @ cache.qk
        dx[:q] += dq @ params.w_q.T
        return dx + dx_v
    dq = _merge_heads_reference(dscores @ cache.kh)
    dk = _merge_heads_reference(dscores.transpose(0, 2, 1) @ cache.qh)
    dv = _merge_heads_reference(dvh)
    grads.w_q += cache.x.T @ dq
    grads.w_k += cache.x.T @ dk
    grads.w_v += cache.x.T @ dv
    return dq @ params.w_q.T + dk @ params.w_k.T + dv @ params.w_v.T


def ln_forward_reference(x, gain, bias):
    from attendout.models import LN_EPS

    xc = x - x.mean(axis=1, keepdims=True)
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat = xc * inv_std
    return gain * x_hat + bias, (x_hat, inv_std)


def ln_backward_reference(cache, gain, dy):
    x_hat, inv_std = cache
    dx_hat = dy * gain
    dx = inv_std * (
        dx_hat
        - dx_hat.mean(axis=1, keepdims=True)
        - x_hat * (dx_hat * x_hat).mean(axis=1, keepdims=True)
    )
    return dx, (dy * x_hat).sum(axis=0), dy.sum(axis=0)


def task_forward_reference(params, tokens, layer_masks=None, skip_blocks=None):
    """Returns (logits, caches), caches a per-block list (None: skipped)."""
    from attendout.numkernel import gelu

    n = params.num_layers
    layer_masks = [None] * n if layer_masks is None else layer_masks
    skips = np.zeros(n, dtype=bool) if skip_blocks is None else np.asarray(skip_blocks, bool)
    x = params.token_embedding[tokens] + params.position_embedding[:len(tokens)]
    caches = []
    for layer, mask, skip in zip(params.layers, layer_masks, skips):
        if skip:
            caches.append(None)
            continue
        a, attn_cache = attn_forward_reference(x, layer.attn, mask)
        h1, ln1 = ln_forward_reference(x + a, layer.ln1_gain, layer.ln1_bias)
        ff_pre = h1 @ layer.ff_w1 + layer.ff_b1
        ff_act = gelu(ff_pre)[0]
        x, ln2 = ln_forward_reference(h1 + (ff_act @ layer.ff_w2 + layer.ff_b2),
                                      layer.ln2_gain, layer.ln2_bias)
        caches.append((attn_cache, ln1, h1, ff_pre, ff_act, ln2))
    return x[0:1] @ params.head_w + params.head_b, (tokens, caches, x)


def task_backward_reference(params, cache, dlogits, grads):
    tokens, caches, x_final = cache
    grads.head_w += x_final[0:1].T @ dlogits
    grads.head_b += dlogits[0]
    dx = np.zeros_like(x_final)
    dx[0] = (dlogits @ params.head_w.T)[0]
    for layer, glayer, block in zip(reversed(params.layers), reversed(grads.layers),
                                    reversed(caches)):
        if block is None:
            continue
        attn_cache, ln1, h1, ff_pre, ff_act, ln2 = block
        dr2, dg2, db2 = ln_backward_reference(ln2, layer.ln2_gain, dx)
        glayer.ln2_gain += dg2
        glayer.ln2_bias += db2
        glayer.ff_w2 += ff_act.T @ dr2
        glayer.ff_b2 += dr2.sum(axis=0)
        dpre = (dr2 @ layer.ff_w2.T) * gelu_grad_recomputed_reference(ff_pre)
        glayer.ff_w1 += h1.T @ dpre
        glayer.ff_b1 += dpre.sum(axis=0)
        dr1, dg1, db1 = ln_backward_reference(ln1, layer.ln1_gain, dr2 + dpre @ layer.ff_w1.T)
        glayer.ln1_gain += dg1
        glayer.ln1_bias += db1
        dx = dr1 + attn_backward_reference(attn_cache, dr1, glayer.attn)
    np.add.at(grads.token_embedding, tokens, dx)
    grads.position_embedding[:len(tokens)] += dx


# ---------------------------------------------------------------------------
# Generator references: a decision as a list of per-layer L x L matrices,
# with one draw, one log-probability term and one score gradient per layer,
# which the (N, L, L) path must match. The attention layer is looked up in
# models at call time, so a patched one serves both paths alike.
# ---------------------------------------------------------------------------


def gnet_scores_reference(gparams, tokens, num_layers):
    """Per-layer lists of pre-softmax scores and forward caches."""
    h = gparams.token_embedding[np.asarray(tokens, dtype=np.int64)]
    scores, caches = [], []
    for _ in range(num_layers):
        h, cache = models.attn_forward(h, gparams.attn)
        scores.append(cache.scores[0])
        caches.append(cache)
    return scores, caches


def normalized_logprob_reference(scores, masks, tau):
    """Per-layer log-probability sums, added in layer order, over N * L^2."""
    total = 0.0
    for s, bits in zip(scores, masks):
        logits = s / tau
        total += float(log_sigmoid(np.where(bits != 0, logits, -logits)).sum())
    length = scores[0].shape[0]
    return total / (len(scores) * length * length)


def logprob_score_grads_reference(scores, masks, tau):
    """Per-layer (bit - sigmoid(s / tau)) / (tau * N * L^2)."""
    norm = len(scores) * scores[0].size
    return [(np.asarray(bits, dtype=np.float64) - sigmoid(s / tau)) / (tau * norm)
            for s, bits in zip(scores, masks)]


@dataclass
class ReferenceDecision:
    """A decision as the reference sampler returns it: masks (a list of
    L x L bit matrices), the normalized log probability that the reference
    backward's stale check compares against, and the mean drop probability
    per layer. For a (B, L) stack of sequences the fields gain a leading
    row axis: (B, N, L, L) masks, (B,) log probabilities, (B, N) means."""

    masks: list | np.ndarray
    logprob: float | np.ndarray
    layer_mean_prob: np.ndarray


def gnet_sample_masks_reference(gparams, tokens, num_layers, rng):
    """One Gumbel draw and mean drop probability per layer. A (B, L) stack
    is sampled one row after another, as B calls would."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 2:
        rows = [gnet_sample_masks_reference(gparams, row, num_layers, rng) for row in tokens]
        return ReferenceDecision(np.stack([np.stack(r.masks) for r in rows]),
                                 np.array([r.logprob for r in rows]),
                                 np.stack([r.layer_mean_prob for r in rows]))
    scores, _ = gnet_scores_reference(gparams, tokens, num_layers)
    masks, mean_probs = [], []
    for s in scores:
        logits = s / gparams.tau
        masks.append(gumbel_binary_sample_array(logits, rng))
        mean_probs.append(float(sigmoid(logits).mean()))
    return ReferenceDecision(masks, normalized_logprob_reference(scores, masks, gparams.tau),
                             np.array(mean_probs))


def gnet_logprob_backward_reference(gparams, tokens, decision, grads):
    """The stale check and the per-layer backward, added into grads. A (B, L)
    stack runs one row after another, row b into grads' tree b."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 2:
        for b, row in enumerate(tokens):
            gnet_logprob_backward_reference(
                gparams, row, ReferenceDecision(decision.masks[b], decision.logprob[b], None),
                ptree._bind(gparams, grads.flat[b])[0])
        return
    scores, caches = gnet_scores_reference(gparams, tokens, len(decision.masks))
    recomputed = normalized_logprob_reference(scores, decision.masks, gparams.tau)
    if abs(recomputed - decision.logprob) > 1e-9:
        raise ContractViolation(f"stale decision: stored logprob {decision.logprob}, "
                                f"recomputed {recomputed}")
    dscores = logprob_score_grads_reference(scores, decision.masks, gparams.tau)
    dh = np.zeros(caches[0].x.shape)
    for cache, ds in zip(reversed(caches), reversed(dscores)):
        dh = models.attn_backward(cache, dh, grads.attn, dscores_extra=ds)
    np.add.at(grads.token_embedding, tokens, dh)


# ---------------------------------------------------------------------------
# Trajectory: one config trained on the current path and again with the
# kept references patched in (the per-sequence path with full-row attention
# in every model, the per-layer generator), compared step by step, so a
# float-order change shows as drift and a bug as a new outcome.
# ---------------------------------------------------------------------------


def run_trajectory(cfg, reference: bool):
    """Train cfg; returns (metrics rows, sync sources, dev accuracy). With
    reference every model runs one sequence at a time with every query row
    of every block computed, and the generator samples and differentiates
    its decisions layer by layer."""
    import functools

    from attendout import policygrad, trainer

    sources = []
    sync = trainer.sync_models

    def recording_sync(*args):
        sources.append(sync(*args))
        return sources[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "sync_models", recording_sync)
        if reference:
            patch.setattr(trainer, "_update_on_batch",
                          functools.partial(update_on_batch_sequence, full_rows=True))
            patch.setattr(trainer, "evaluate", functools.partial(evaluate_sequence, full_rows=True))
            patch.setattr(trainer, "gnet_sample_masks", gnet_sample_masks_reference)
            patch.setattr(policygrad, "gnet_logprob_backward", gnet_logprob_backward_reference)
        result = trainer.train(cfg)
    return result.metrics, sources, result.dev_accuracy


def compare_trajectories(current, reference) -> dict:
    """Per-step drift and window outcomes of two run_trajectory results: the
    largest relative difference of each loss, the largest absolute
    drop_prob difference, the first window whose outcome (eval_D, eval_A,
    reward, sync source) differs or None, and both dev accuracies. updates
    counts the current run's windows with a nonzero advantage, the ones
    that reach the generator's backward."""
    rows, sources, accuracy = current
    ref_rows, ref_sources, ref_accuracy = reference
    if len(rows) != len(ref_rows):
        raise AssertionError(f"{len(rows)} steps against {len(ref_rows)}")
    report = {"steps": len(rows), "windows": len(sources),
              "updates": sum(r["reward_mean"] != r["baseline"] for r in rows if "eval_D" in r),
              "dev_accuracy": (accuracy, ref_accuracy)}
    for key in ("loss_D", "loss_A"):
        pairs = [(r[key], f[key]) for r, f in zip(rows, ref_rows) if key in r]
        if pairs:
            report[f"{key}_rel"] = max(abs(a - b) / abs(b) for a, b in pairs)
    report["drop_prob_abs"] = max(
        (float(np.abs(np.subtract(r["drop_prob"], f["drop_prob"])).max())
         for r, f in zip(rows, ref_rows) if "drop_prob" in r), default=0.0)

    def outcomes(metric_rows, sync_sources):
        windows = [r for r in metric_rows if "eval_D" in r]
        return [(r["eval_D"], r["eval_A"], r["reward_mean"], s)
                for r, s in zip(windows, sync_sources)]

    ours, theirs = outcomes(rows, sources), outcomes(ref_rows, ref_sources)
    report["first_differing_window"] = next(
        (i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b),
        None if len(ours) == len(theirs) else min(len(ours), len(theirs)))
    return report
