"""Task model and mask generator.

The task model is a small transformer encoder: token plus learned position
embeddings, N post-norm blocks (attention, residual, layer norm,
feed-forward, residual, layer norm), and a classifier head read from the
first position. It is instantiated twice by the adversarial trainer, once
as the defender and once as the attacker; every attention regularizer,
the attacker's learned one included, reaches it as one mask per layer: a
MaskMatrix, or a MaskStack of one per sequence when the model runs on a
stack of sequences at once.

The generator is a deliberately small policy network: its own token
embedding of width d_g, a single one-head attention layer shared across all
N layer decisions, and no feed-forward sublayer. Applying that one layer N
times in sequence yields N distinct pre-softmax score matrices; unit (i, j)
of layer t is dropped with probability sigmoid(score / tau), sampled by the
Gumbel-max trick.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import ptree
from .attention import (
    AttentionParams,
    attn_backward,
    attn_forward,
)
from .numkernel import (
    ContractViolation,
    RngState,
    ShapeError,
    gelu,
    gelu_grad,
    gumbel_binary_sample_array,
    log_sigmoid,
    sigmoid,
)

LN_EPS = 1e-5


# ---------------------------------------------------------------------------
# Parameter containers: ptree.ParamTree dataclasses whose named arrays are
# views into one float64 buffer per model (`params.flat`, in field order;
# each layer and attention group owns a slice). Gradients reuse the classes.
# ---------------------------------------------------------------------------


@dataclass
class ModelConfig:
    vocab_size: int
    max_len: int
    num_layers: int
    d_model: int
    d_ff: int
    num_heads: int
    num_classes: int

    def validate(self) -> None:
        if min(self.vocab_size, self.max_len, self.num_layers, self.d_model,
               self.d_ff, self.num_heads, self.num_classes) < 1:
            raise ShapeError(f"all model dimensions must be >= 1: {self}")
        if self.d_model % self.num_heads != 0:
            raise ShapeError(
                f"d_model={self.d_model} not divisible by heads={self.num_heads}"
            )


@dataclass
class LayerParams(ptree.ParamTree):
    attn: AttentionParams
    ff_w1: np.ndarray
    ff_b1: np.ndarray
    ff_w2: np.ndarray
    ff_b2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


@dataclass
class TaskModelParams(ptree.ParamTree):
    token_embedding: np.ndarray      # V x d_model
    position_embedding: np.ndarray   # max_len x d_model
    layers: list[LayerParams]
    head_w: np.ndarray               # d_model x C
    head_b: np.ndarray               # C
    config: ModelConfig

    @property
    def num_layers(self) -> int:
        return len(self.layers)


@dataclass
class GeneratorConfig:
    vocab_size: int
    dim: int
    tau: float


@dataclass
class GeneratorParams(ptree.ParamTree):
    """One-head attention policy; a single parameter group serves every
    layer decision and there are no feed-forward weights."""

    token_embedding: np.ndarray      # V x d_g
    attn: AttentionParams
    tau: float

    def __post_init__(self):
        if self.attn.num_heads != 1:
            raise ShapeError("generator attention must be single-head")
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau}")
        super().__post_init__()


@dataclass
class MaskDecision:
    """Sampled drop masks of every layer: masks is one (..., N, L, L) uint8
    array, 1 = drop, with the tokens' leading axes, and masks[..., i, :, :]
    is layer i's L x L bits; layer_mean_prob (..., N), a diagnostic, is each
    layer's mean sigmoid drop probability."""

    masks: np.ndarray
    layer_mean_prob: np.ndarray


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def _linear_init(rng: RngState, fan_in: int, fan_out: int) -> np.ndarray:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal_array((fan_in, fan_out)) * std


def _attn_init(rng: RngState, d: int, num_heads: int) -> AttentionParams:
    return AttentionParams(
        _linear_init(rng, d, d), _linear_init(rng, d, d),
        _linear_init(rng, d, d), _linear_init(rng, d, d),
        num_heads=num_heads,
    )


def init_task_model(config: ModelConfig, seed: int) -> TaskModelParams:
    """Deterministic per seed: the same (config, seed) pair always yields
    bit-identical parameters."""
    config.validate()
    rng = RngState(seed).derive("task-init")
    d = config.d_model
    layers = []
    for _ in range(config.num_layers):
        layers.append(LayerParams(
            attn=_attn_init(rng, d, config.num_heads),
            ff_w1=_linear_init(rng, d, config.d_ff),
            ff_b1=np.zeros(config.d_ff),
            ff_w2=_linear_init(rng, config.d_ff, d),
            ff_b2=np.zeros(d),
            ln1_gain=np.ones(d), ln1_bias=np.zeros(d),
            ln2_gain=np.ones(d), ln2_bias=np.zeros(d),
        ))
    return TaskModelParams(
        token_embedding=rng.normal_array((config.vocab_size, d)) * 0.02,
        position_embedding=rng.normal_array((config.max_len, d)) * 0.02,
        layers=layers,
        # small head keeps initial logits near zero: fresh cross-entropy
        # starts at ln C and no class is favored before training
        head_w=rng.normal_array((d, config.num_classes)) * 0.02,
        head_b=np.zeros(config.num_classes),
        config=config,
    )


def init_generator(config: GeneratorConfig, seed: int) -> GeneratorParams:
    # Unit-scale embeddings keep the policy's pre-softmax scores O(1), so
    # initial drop probabilities spread around one half and the score Jacobian is
    # large enough for the reward signal to move them.
    rng = RngState(seed).derive("gnet-init")
    return GeneratorParams(
        token_embedding=rng.normal_array((config.vocab_size, config.dim)),
        attn=_attn_init(rng, config.dim, 1),
        tau=config.tau,
    )


# ---------------------------------------------------------------------------
# Layer norm and feed-forward pieces
# ---------------------------------------------------------------------------


# Row means are written as sum / d: numpy's mean computes exactly that, but
# through a Python wrapper that costs more than the sum itself at these sizes.
# Rows may carry leading item axes; dgain and dbias come out per item.
def _ln_forward(x, gain, bias):
    d = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat = xc * inv_std
    return gain * x_hat + bias, (x_hat, inv_std)


def _ln_backward(cache, gain, dy):
    x_hat, inv_std = cache
    dgain = (dy * x_hat).sum(axis=-2)
    dbias = dy.sum(axis=-2)
    dx_hat = dy * gain
    d = dy.shape[-1]
    dx = inv_std * (
        dx_hat
        - dx_hat.sum(axis=-1, keepdims=True) / d
        - x_hat * ((dx_hat * x_hat).sum(axis=-1, keepdims=True) / d)
    )
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# Task model forward / backward
# ---------------------------------------------------------------------------


@dataclass
class TaskCache:
    """blocks holds one tuple (attention cache, ln1 cache, h1, ff_pre,
    ff_act, ff_tanh, ln2 cache) per block, None for a skipped one; ff_tanh
    is gelu's tanh, reused by gelu_grad. x_final is (..., 1, d_model), or
    (..., L, d_model) when every block is skipped."""

    params: TaskModelParams
    tokens: np.ndarray
    blocks: list[tuple | None]
    x_final: np.ndarray


def task_forward(params: TaskModelParams, tokens,
                 layer_masks: list | None = None,
                 skip_blocks: np.ndarray | None = None) -> tuple[np.ndarray, TaskCache]:
    """Forward pass over one token sequence (L,) or a stack (..., L) of
    them; returns (logits, cache), logits (..., 1, C): 1 x C per sequence.

    layer_masks holds one mask per layer (None: no dropout anywhere): a
    MaskMatrix, which applies to every sequence, or a MaskStack of one
    MaskMatrix per sequence. It is the one way a mask reaches the model,
    whether it comes from the generator's drop bits, a random regularizer,
    or an all-dropped attention layer. skip_blocks short-circuits whole
    blocks to identity for every sequence. Classification pools the first
    position, so the last block that runs computes position 0 only: its
    attention takes one query row. Each sequence's logits have the bits
    they would have if it ran alone.
    """
    cfg = params.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim < 1 or tokens.size < 1:
        raise ShapeError(f"tokens must be nonempty sequences, got {tokens.shape}")
    length = tokens.shape[-1]
    if length > cfg.max_len:
        raise ShapeError(f"sequence length {length} exceeds max_len {cfg.max_len}")
    if np.any(tokens < 0) or np.any(tokens >= cfg.vocab_size):
        raise IndexError(f"token id out of range [0, {cfg.vocab_size})")

    n = params.num_layers
    layer_masks = [None] * n if layer_masks is None else layer_masks
    if len(layer_masks) != n:
        raise ShapeError(f"got {len(layer_masks)} layer masks, model has {n}")
    skips = np.zeros(n, dtype=bool) if skip_blocks is None \
        else np.asarray(skip_blocks).astype(bool)
    if skips.shape != (n,):
        raise ShapeError(f"need {n} skip bits, got {skips.shape}")

    last = max((i for i in range(n) if not skips[i]), default=-1)
    x = params.token_embedding[tokens] + params.position_embedding[:length]
    blocks = []
    for i, (layer, mask, skip) in enumerate(zip(params.layers, layer_masks, skips)):
        if skip:
            blocks.append(None)
            continue
        a, attn_cache = attn_forward(x, layer.attn, mask, queries=1 if i == last else None)
        h1, ln1_cache = _ln_forward(x[..., :a.shape[-2], :] + a, layer.ln1_gain,
                                    layer.ln1_bias)
        ff_pre = h1 @ layer.ff_w1 + layer.ff_b1
        ff_act, ff_tanh = gelu(ff_pre)
        f = ff_act @ layer.ff_w2 + layer.ff_b2
        x, ln2_cache = _ln_forward(h1 + f, layer.ln2_gain, layer.ln2_bias)
        blocks.append((attn_cache, ln1_cache, h1, ff_pre, ff_act, ff_tanh, ln2_cache))

    logits = x[..., 0:1, :] @ params.head_w + params.head_b
    return logits, TaskCache(params, tokens, blocks, x)


def task_backward(cache: TaskCache, dlogits: np.ndarray, grads: TaskModelParams) -> None:
    """Gradients of <dlogits, logits> for every parameter, added into grads,
    a caller-owned tree shaped like the parameters, one sequence after
    another (a batch sums its items into one buffer this way, in the same
    order however it is cut into stacks). dlogits is shaped like the
    logits. Dropped attention units and skipped blocks contribute nothing."""
    params = cache.params
    dlogits = np.asarray(dlogits, dtype=np.float64)
    want = cache.x_final.shape[:-2] + (1, params.config.num_classes)
    if dlogits.shape != want:
        raise ShapeError(f"dlogits must be {want}, got {dlogits.shape}")

    ptree.add_items(grads.head_w, cache.x_final[..., 0:1, :].swapaxes(-1, -2) @ dlogits)
    ptree.add_items(grads.head_b, dlogits[..., 0, :])

    length = cache.tokens.shape[-1]
    dx = np.zeros_like(cache.x_final)
    dx[..., 0, :] = (dlogits @ params.head_w.T)[..., 0, :]

    for layer, glayer, block in zip(
        reversed(params.layers), reversed(grads.layers), reversed(cache.blocks)
    ):
        if block is None:
            continue
        dr1 = _sublayer_backward(layer, glayer, block, dx)
        dx = attn_backward(block[0], dr1, glayer.attn)
        dx[..., :dr1.shape[-2], :] += dr1

    # Repeated tokens are summed within the sequence first, in sequence
    # order (the one-hot V x L product's sum over L), so each row of the
    # batch buffer takes one addition per sequence: scattering straight into
    # it would reorder the float additions.
    onehot = cache.tokens[..., None, :] == np.arange(params.config.vocab_size)[:, None]
    ptree.add_items(grads.token_embedding, onehot.astype(np.float64) @ dx)
    ptree.add_items(grads.position_embedding[:length], dx)


def _sublayer_backward(layer: LayerParams, glayer: LayerParams, block, dx):
    """Gradient on a block's first residual sum (attention output plus its
    input), given the gradient on the block's output; the layer-norm and
    feed-forward gradients are added into glayer. Its temporaries are freed
    before the attention backward runs."""
    _, ln1_cache, h1, ff_pre, ff_act, ff_tanh, ln2_cache = block
    dr2, dg2, db2 = _ln_backward(ln2_cache, layer.ln2_gain, dx)
    ptree.add_items(glayer.ln2_gain, dg2)
    ptree.add_items(glayer.ln2_bias, db2)
    ptree.add_products(glayer.ff_w2, ff_act.swapaxes(-1, -2), dr2)
    ptree.add_items(glayer.ff_b2, dr2.sum(axis=-2))
    dpre = gelu_grad(ff_pre, ff_tanh)
    dpre *= dr2 @ layer.ff_w2.T
    ptree.add_products(glayer.ff_w1, h1.swapaxes(-1, -2), dpre)
    ptree.add_items(glayer.ff_b1, dpre.sum(axis=-2))
    dh1 = dr2 + dpre @ layer.ff_w1.T
    dr1, dg1, db1 = _ln_backward(ln1_cache, layer.ln1_gain, dh1)
    ptree.add_items(glayer.ln1_gain, dg1)
    ptree.add_items(glayer.ln1_bias, db1)
    return dr1


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def gnet_scores(gparams: GeneratorParams, tokens, num_layers: int):
    """Pre-softmax scores of every layer decision, (..., N, L, L) for tokens
    (..., L), one sequence or a stack, plus the per-layer forward caches.
    Scores depend only on (params, tokens), never on sampled bits, and each
    sequence of a stack gets the bits it would get alone."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim < 1 or tokens.size < 1:
        raise ShapeError(f"tokens must be nonempty sequences, got {tokens.shape}")
    if np.any(tokens < 0) or np.any(tokens >= gparams.token_embedding.shape[0]):
        raise IndexError("token id out of range for generator vocabulary")
    h = gparams.token_embedding[tokens]
    caches = []
    for _ in range(num_layers):
        h, cache = attn_forward(h, gparams.attn)
        caches.append(cache)
    return np.stack([cache.scores[..., 0, :, :] for cache in caches], axis=-3), caches, tokens


def gnet_sample_masks(gparams: GeneratorParams, tokens, num_layers: int,
                      rng: RngState) -> MaskDecision:
    """Sample the dropout decision of each sequence of tokens (..., L): unit
    (i, j) of layer t drops with probability sigmoid(score_tij / tau), via
    the Gumbel-max trick, all units in one row-major draw, which gives the
    bits and counter of one call per sequence."""
    scores, _, _ = gnet_scores(gparams, tokens, num_layers)
    logits = scores / gparams.tau
    return MaskDecision(masks=gumbel_binary_sample_array(logits, rng),
                        layer_mean_prob=sigmoid(logits).mean(axis=(-2, -1)))


def decision_logprob(gparams: GeneratorParams, tokens, decision: MaskDecision) -> float:
    """The normalized log probability of one sequence's decision bits under
    the current parameters: their mean per-unit log probability."""
    scores, _, _ = gnet_scores(gparams, tokens, len(decision.masks))
    logits = scores / gparams.tau
    return float(log_sigmoid(np.where(decision.masks != 0, logits, -logits)).sum() / logits.size)


def _logprob_score_grads(scores, masks, tau: float) -> np.ndarray:
    """d logprob / d score per unit: (bit - sigmoid(s/tau)) / tau, carrying
    each decision's 1 / (N * L^2) normalization."""
    scores = np.asarray(scores)
    p = sigmoid(scores / tau)
    return (np.asarray(masks, dtype=np.float64) - p) / (tau * np.prod(scores.shape[-3:]))


def gnet_backward_from_score_grads(tokens, caches, dscores: np.ndarray,
                                   grads: GeneratorParams) -> None:
    """Reverse through the unrolled shared-attention stack, and into the
    embeddings of tokens (..., L), given the (..., N, L, L) gradient on the
    pre-softmax scores; the parameter gradients are added into grads, a
    caller-owned tree shaped like the generator with the tokens' leading
    axes (one tree per sequence). The backward map is linear in the
    injected score gradients, which the enumeration oracle exploits."""
    dh = np.zeros(caches[0].x.shape)
    for cache, ds in zip(reversed(caches), np.moveaxis(dscores, -3, 0)[::-1]):
        dh = attn_backward(cache, dh, grads.attn, dscores_extra=ds)
    np.add.at(grads.token_embedding, np.indices(tokens.shape, sparse=True)[:-1] + (tokens,), dh)


def gnet_logprob_backward(gparams: GeneratorParams, tokens,
                          decision: MaskDecision, grads: GeneratorParams) -> None:
    """Gradient of each decision's normalized log probability with respect
    to the generator parameters, for tokens (..., L) in one stacked forward
    and backward, added into grads' tree of its sequence: from zeroed rows,
    each row holds the bits of one fresh tree per decision."""
    scores, caches, tokens = gnet_scores(gparams, tokens, np.shape(decision.masks)[-3])
    dscores = _logprob_score_grads(scores, decision.masks, gparams.tau)
    gnet_backward_from_score_grads(tokens, caches, dscores, grads)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def save_checkpoint(path, params) -> None:
    """Write all parameter tensors with shape headers; round-trips bit-exact."""
    if isinstance(params, TaskModelParams):
        kind = "task"
        meta = vars(params.config).copy()
    elif isinstance(params, GeneratorParams):
        kind = "generator"
        meta = {"vocab_size": params.token_embedding.shape[0],
                "dim": params.attn.d_model, "tau": params.tau}
    else:
        raise TypeError(f"cannot checkpoint {type(params)}")
    header = json.dumps({"version": _CHECKPOINT_VERSION, "kind": kind, "meta": meta})
    np.savez(path, __header__=np.frombuffer(header.encode(), dtype=np.uint8),
             **dict(ptree.iter_arrays(params)))


def load_checkpoint(path):
    """Read a save_checkpoint file; raises ContractViolation unless it is an
    npz archive whose header is well formed, whose kind is known, whose meta
    builds a valid model of that kind and whose tensors are exactly the
    model's names, shapes and float64."""
    try:
        with np.load(path) as data:
            return _read_checkpoint(data)
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise ContractViolation(f"unreadable checkpoint {path}: {exc}") from None


def _read_checkpoint(data):
    try:
        header = json.loads(bytes(data["__header__"]).decode())
        version, kind, meta = header["version"], header["kind"], header["meta"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractViolation(f"malformed checkpoint header: {exc!r}") from None
    if version != _CHECKPOINT_VERSION:
        raise ContractViolation(f"unsupported checkpoint version {version}")
    if kind == "task":
        config_cls, init = ModelConfig, init_task_model
    elif kind == "generator":
        config_cls, init = GeneratorConfig, init_generator
    else:
        raise ContractViolation(f"unknown checkpoint kind {kind!r}")
    try:
        params = init(config_cls(**meta), seed=0)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"checkpoint meta does not fit {config_cls.__name__}: "
                                f"{exc}") from None
    expected = dict(ptree.iter_arrays(params))
    stored = set(data.files) - {"__header__"}
    if stored != set(expected):
        raise ContractViolation(f"checkpoint lacks {sorted(set(expected) - stored)}, "
                                f"has unexpected {sorted(stored - set(expected))}")
    for name, arr in expected.items():
        value = data[name]
        if value.dtype != np.float64 or value.shape != arr.shape:
            raise ContractViolation(f"checkpoint tensor {name} is {value.dtype}"
                                    f"{value.shape}, expected float64{arr.shape}")
        arr[...] = value
    return params
