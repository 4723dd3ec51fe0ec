"""Task model and mask generator.

The task model is a small transformer encoder: token plus learned position
embeddings, N post-norm blocks (attention, residual, layer norm,
feed-forward, residual, layer norm), and a classifier head read from the
first position. It is instantiated twice by the adversarial trainer, once
as the defender and once as the attacker; every attention regularizer,
the attacker's learned one included, reaches it as one MaskMatrix per
layer.

The generator is a deliberately small policy network: its own token
embedding of width d_g, a single one-head attention layer shared across all
N layer decisions, and no feed-forward sublayer. Applying that one layer N
times in sequence yields N distinct pre-softmax score matrices; unit (i, j)
of layer t is dropped with probability sigmoid(score / tau), sampled by the
Gumbel-max trick.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import ptree
from .attention import (
    AttentionCache,
    AttentionParams,
    MaskMatrix,
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
    tau: float = 1.0


@dataclass
class GeneratorParams(ptree.ParamTree):
    """One-head attention policy; a single parameter group serves every
    layer decision and there are no feed-forward weights."""

    token_embedding: np.ndarray      # V x d_g
    attn: AttentionParams
    tau: float = 1.0

    def __post_init__(self):
        if self.attn.num_heads != 1:
            raise ShapeError("generator attention must be single-head")
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau}")
        super().__post_init__()


@dataclass
class MaskDecision:
    """Sampled per-layer drop masks for one sample.

    masks[i] is L x L with 1 = drop. logprob is the mean per-unit log
    probability of the sampled bits, i.e. already carries the 1 / (N * L^2)
    normalization the policy-gradient update expects. layer_drop_fraction
    and layer_mean_prob are diagnostics: realized drop rate and mean
    sigmoid drop probability per layer.
    """

    masks: list[np.ndarray]
    logprob: float
    layer_drop_fraction: np.ndarray
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


def init_task_model(config: ModelConfig, seed: int | RngState) -> TaskModelParams:
    """Deterministic per seed: the same (config, seed) pair always yields
    bit-identical parameters."""
    config.validate()
    rng = RngState(seed).derive("task-init") if isinstance(seed, int) else seed.clone()
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


def init_generator(config: GeneratorConfig, seed: int | RngState) -> GeneratorParams:
    # Unit-scale embeddings keep the policy's pre-softmax scores O(1), so
    # initial drop probabilities spread around one half and the score Jacobian is
    # large enough for the reward signal to move them.
    rng = RngState(seed).derive("gnet-init") if isinstance(seed, int) else seed.clone()
    return GeneratorParams(
        token_embedding=rng.normal_array((config.vocab_size, config.dim)),
        attn=_attn_init(rng, config.dim, 1),
        tau=config.tau,
    )


# ---------------------------------------------------------------------------
# Layer norm and feed-forward pieces
# ---------------------------------------------------------------------------


def _ln_forward(x, gain, bias):
    xc = x - x.mean(axis=1, keepdims=True)
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat = xc * inv_std
    return gain * x_hat + bias, (x_hat, inv_std)


def _ln_backward(cache, gain, dy):
    x_hat, inv_std = cache
    dgain = (dy * x_hat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dx_hat = dy * gain
    dx = inv_std * (
        dx_hat
        - dx_hat.mean(axis=1, keepdims=True)
        - x_hat * (dx_hat * x_hat).mean(axis=1, keepdims=True)
    )
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# Task model forward / backward
# ---------------------------------------------------------------------------


@dataclass
class _BlockCache:
    skipped: bool
    attn_cache: AttentionCache | None = None
    ln1_cache: tuple | None = None
    h1: np.ndarray | None = None
    ff_pre: np.ndarray | None = None
    ff_act: np.ndarray | None = None
    ln2_cache: tuple | None = None


@dataclass
class TaskCache:
    params: TaskModelParams
    tokens: np.ndarray
    blocks: list[_BlockCache]
    x_final: np.ndarray


def task_forward(params: TaskModelParams, tokens,
                 layer_masks: list[MaskMatrix | None] | None = None,
                 skip_blocks: np.ndarray | None = None) -> tuple[np.ndarray, TaskCache]:
    """Forward pass over one token sequence; returns (1 x C logits, cache).

    layer_masks holds one MaskMatrix per layer (None: no dropout anywhere);
    it is the one way a mask reaches the model, whether it comes from the
    generator's drop bits, a random regularizer, or an all-dropped
    attention layer. skip_blocks short-circuits whole blocks to identity.
    Classification pools the first position.
    """
    cfg = params.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size < 1:
        raise ShapeError(f"tokens must be a nonempty 1-D sequence, got {tokens.shape}")
    length = tokens.size
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

    x = params.token_embedding[tokens] + params.position_embedding[:length]
    blocks = []
    for layer, mask, skip in zip(params.layers, layer_masks, skips):
        if skip:
            blocks.append(_BlockCache(skipped=True))
            continue
        a, attn_cache = attn_forward(x, layer.attn, mask)
        h1, ln1_cache = _ln_forward(x + a, layer.ln1_gain, layer.ln1_bias)
        ff_pre = h1 @ layer.ff_w1 + layer.ff_b1
        ff_act = gelu(ff_pre)
        f = ff_act @ layer.ff_w2 + layer.ff_b2
        x, ln2_cache = _ln_forward(h1 + f, layer.ln2_gain, layer.ln2_bias)
        blocks.append(_BlockCache(False, attn_cache, ln1_cache, h1, ff_pre, ff_act, ln2_cache))

    logits = x[0:1] @ params.head_w + params.head_b
    return logits, TaskCache(params, tokens, blocks, x)


def task_backward(cache: TaskCache, dlogits: np.ndarray, grads: TaskModelParams) -> None:
    """Gradients of <dlogits, logits> for every parameter, added into grads,
    a caller-owned tree shaped like the parameters (a batch sums its items
    into one buffer this way). Dropped attention units and skipped blocks
    contribute nothing."""
    params = cache.params
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != (1, params.config.num_classes):
        raise ShapeError(f"dlogits must be 1x{params.config.num_classes}")

    grads.head_w += cache.x_final[0:1].T @ dlogits
    grads.head_b += dlogits[0]

    length = cache.tokens.size
    dx = np.zeros((length, params.config.d_model))
    dx[0] = (dlogits @ params.head_w.T)[0]

    for layer, glayer, block in zip(
        reversed(params.layers), reversed(grads.layers), reversed(cache.blocks)
    ):
        if block.skipped:
            continue
        dr2, dg2, db2 = _ln_backward(block.ln2_cache, layer.ln2_gain, dx)
        glayer.ln2_gain += dg2
        glayer.ln2_bias += db2
        df = dr2
        glayer.ff_w2 += block.ff_act.T @ df
        glayer.ff_b2 += df.sum(axis=0)
        dact = df @ layer.ff_w2.T
        dpre = dact * gelu_grad(block.ff_pre)
        glayer.ff_w1 += block.h1.T @ dpre
        glayer.ff_b1 += dpre.sum(axis=0)
        dh1 = dr2 + dpre @ layer.ff_w1.T
        dr1, dg1, db1 = _ln_backward(block.ln1_cache, layer.ln1_gain, dh1)
        glayer.ln1_gain += dg1
        glayer.ln1_bias += db1
        dx = dr1 + attn_backward(block.attn_cache, dr1, glayer.attn)

    # Repeated tokens are summed within the sequence first, so each row of
    # the batch buffer takes one addition per sequence: scattering straight
    # into it would reorder the float additions.
    dembed = np.zeros_like(grads.token_embedding)
    np.add.at(dembed, cache.tokens, dx)
    grads.token_embedding += dembed
    grads.position_embedding[:length] += dx


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def gnet_scores(gparams: GeneratorParams, tokens, num_layers: int):
    """Pre-softmax score matrices for each layer decision, plus the forward
    caches. Scores depend only on (params, tokens), never on sampled bits."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size < 1:
        raise ShapeError(f"tokens must be a nonempty 1-D sequence, got {tokens.shape}")
    if np.any(tokens < 0) or np.any(tokens >= gparams.token_embedding.shape[0]):
        raise IndexError("token id out of range for generator vocabulary")
    h = gparams.token_embedding[tokens]
    scores, caches = [], []
    for _ in range(num_layers):
        h_next, cache = attn_forward(h, gparams.attn)
        scores.append(cache.scores[0])
        caches.append(cache)
        h = h_next
    return scores, caches, tokens


def gnet_sample_masks(gparams: GeneratorParams, tokens, num_layers: int,
                      rng: RngState) -> MaskDecision:
    """Sample one dropout decision: per layer, unit (i, j) drops with
    probability sigmoid(score_ij / tau), via the Gumbel-max trick."""
    scores, _, tokens = gnet_scores(gparams, tokens, num_layers)
    length = tokens.size
    masks, fractions, mean_probs = [], [], []
    logprob_total = 0.0
    for s in scores:
        logits = s / gparams.tau
        bits, logprobs = gumbel_binary_sample_array(logits, rng)
        masks.append(bits)
        logprob_total += float(logprobs.sum())
        fractions.append(float(bits.mean()))
        mean_probs.append(float(sigmoid(logits).mean()))
    norm = num_layers * length * length
    return MaskDecision(
        masks=masks,
        logprob=logprob_total / norm,
        layer_drop_fraction=np.array(fractions),
        layer_mean_prob=np.array(mean_probs),
    )


def _normalized_logprob(scores, masks, tau: float) -> float:
    total = 0.0
    for s, bits in zip(scores, masks):
        logits = s / tau
        total += float(log_sigmoid(np.where(bits != 0, logits, -logits)).sum())
    length = scores[0].shape[0]
    return total / (len(scores) * length * length)


def decision_logprob(gparams: GeneratorParams, tokens, decision: MaskDecision) -> float:
    """Recompute the normalized log probability of a decision's bits under
    the current parameters."""
    scores, _, _ = gnet_scores(gparams, tokens, len(decision.masks))
    return _normalized_logprob(scores, decision.masks, gparams.tau)


def _logprob_score_grads(scores, masks, tau: float):
    """d logprob / d score per unit: (bit - sigmoid(s/tau)) / tau, carrying
    the 1 / (N * L^2) normalization."""
    num_layers = len(scores)
    length = scores[0].shape[0]
    norm = num_layers * length * length
    out = []
    for s, bits in zip(scores, masks):
        p = sigmoid(s / tau)
        out.append((np.asarray(bits, dtype=np.float64) - p) / (tau * norm))
    return out


def gnet_backward_from_score_grads(tokens, caches, dscores_list,
                                   grads: GeneratorParams) -> None:
    """Reverse through the unrolled shared-attention stack, and into the
    embeddings of tokens, given per-layer gradients on the pre-softmax
    scores; the parameter gradients are added into grads, a caller-owned
    tree shaped like the generator. The backward map is linear in the
    injected score gradients, which the enumeration oracle exploits."""
    tokens_len, dim = caches[0].x.shape
    dh = np.zeros((tokens_len, dim))
    for cache, ds in zip(reversed(caches), reversed(dscores_list)):
        dh = attn_backward(cache, dh, grads.attn, dscores_extra=ds)
    np.add.at(grads.token_embedding, tokens, dh)


def gnet_logprob_backward(gparams: GeneratorParams, tokens,
                          decision: MaskDecision, grads: GeneratorParams) -> None:
    """Gradient of the decision's normalized logprob with respect to the
    generator parameters, added into grads (a caller-owned tree shaped like
    gparams). Raises if the decision's stored logprob no longer matches
    these parameters (stale decision)."""
    scores, caches, tokens = gnet_scores(gparams, tokens, len(decision.masks))
    recomputed = _normalized_logprob(scores, decision.masks, gparams.tau)
    if abs(recomputed - decision.logprob) > 1e-9:
        raise ContractViolation(
            f"stale decision: stored logprob {decision.logprob}, "
            f"recomputed {recomputed}"
        )
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
    """Read a save_checkpoint file; raises ContractViolation unless the
    header is well formed, the kind is known and the tensors are exactly
    the model's names, shapes and float64."""
    with np.load(path) as data:
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
            config = config_cls(**meta)
        except TypeError as exc:
            raise ContractViolation(f"checkpoint meta does not fit {config_cls.__name__}: "
                                    f"{exc}") from None
        params = init(config, seed=0)
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
