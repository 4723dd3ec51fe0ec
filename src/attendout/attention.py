"""One self-attention block, forward and analytic backward, with no mask
or one of three dropout modes on the attention matrix.

Modes:
  None        (no mask) plain scaled dot-product attention.
  WEIGHTS     a binary mask multiplies the post-softmax weights. Kept rows
              simply sum to less than one unless the mask carries an
              inverted-dropout rescale, applied after the mask.
  SCORES      an additive {0, NEG_INF} mask hits the pre-softmax scores, so
              the surviving weights renormalize to one.
  ALL_DROPPED every unit removed. The attention matrix degenerates to the
              constant 1/L, every output row (pre output projection) is the
              column mean of V, and the query/key projections plus their dot
              product are skipped entirely.

A MaskMatrix is the only way a mask reaches a layer: one is shared across
all heads of a layer, so the decision space is the L x L attention matrix
of the layer, not per head. A MaskMatrix checks its entries once, when it
is built, so a layer only matches their side to the sequence length.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import ptree
from .numkernel import NEG_INF, ContractViolation, ShapeError, softmax_rows


class MaskMode(enum.Enum):
    WEIGHTS = "weights"
    SCORES = "scores"
    ALL_DROPPED = "all_dropped"


@dataclass(frozen=True)
class MaskMatrix:
    """Per-layer dropout mask for one sample; None, not a MaskMatrix, means
    no mask.

    entries is L x L and binary {0,1} in WEIGHTS mode (1 = keep), or
    {0, NEG_INF} in SCORES mode (NEG_INF = dropped) with at least one kept
    unit per row, since a fully dropped row has no softmax. ALL_DROPPED
    carries no entries. rescale, WEIGHTS mode only, multiplies the masked
    weights (inverted dropout). Construction raises ContractViolation on
    entries that break these rules.
    """

    mode: MaskMode
    entries: np.ndarray | None = None
    rescale: float | None = None

    def __post_init__(self):
        e = self.entries
        if self.mode is MaskMode.ALL_DROPPED:
            if e is not None:
                raise ContractViolation("an ALL_DROPPED mask carries no entries")
            return
        if e is None or e.ndim != 2 or e.shape[0] != e.shape[1]:
            shape = None if e is None else e.shape
            raise ContractViolation(f"{self.mode} mask entries must be square, got {shape}")
        if self.mode is MaskMode.WEIGHTS:
            if not np.all((e == 0.0) | (e == 1.0)):
                raise ContractViolation("WEIGHTS mask entries must be in {0, 1}")
            return
        dropped = e == NEG_INF
        if not np.all(dropped | (e == 0.0)):
            raise ContractViolation("SCORES mask entries must be in {0, NEG_INF}")
        if np.any(dropped.all(axis=1)):
            raise ContractViolation(
                "SCORES mask has a fully dropped row; use MaskMode.ALL_DROPPED"
            )

    @staticmethod
    def all_dropped() -> "MaskMatrix":
        return MaskMatrix(MaskMode.ALL_DROPPED)

    @staticmethod
    def weights(keep: np.ndarray, rescale: float | None = None) -> "MaskMatrix":
        return MaskMatrix(MaskMode.WEIGHTS, np.asarray(keep, dtype=np.float64), rescale)

    @staticmethod
    def from_drop_bits(bits: np.ndarray) -> "MaskMatrix":
        """Build a SCORES mask from drop bits (1 = drop), escalating to
        ALL_DROPPED when any row is fully dropped.

        A row with every unit dropped cannot be expressed in SCORES mode
        (its softmax is undefined), so such a mask escalates the whole
        layer to the constant-attention path.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
            raise ShapeError(f"drop bits must be square, got {bits.shape}")
        dropped = bits != 0
        if np.any(dropped.all(axis=1)):
            return MaskMatrix.all_dropped()
        return MaskMatrix(MaskMode.SCORES, np.where(dropped, NEG_INF, 0.0))


@dataclass
class AttentionParams(ptree.ParamTree):
    """Projections of one attention layer; all four are d_model x d_model.
    attn_backward adds its gradients into a tree of the same class."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    num_heads: int = 1

    def __post_init__(self):
        d = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v", "w_o"):
            if getattr(self, name).shape != (d, d):
                raise ShapeError(f"{name} must be {d}x{d}")
        if self.num_heads < 1 or d % self.num_heads != 0:
            raise ShapeError(
                f"d_model={d} not divisible by num_heads={self.num_heads}"
            )
        super().__post_init__()

    @property
    def d_model(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_k(self) -> int:
        return self.d_model // self.num_heads


@dataclass
class AttentionCache:
    """Forward intermediates needed by attn_backward; q query rows of L."""

    mask: MaskMatrix | None
    params: AttentionParams
    x: np.ndarray
    pre: np.ndarray                      # q x d_model, input to w_o
    # regular modes
    qh: np.ndarray | None = None         # (H, q, d_k)
    kh: np.ndarray | None = None         # (H, L, d_k)
    vh: np.ndarray | None = None
    scores: np.ndarray | None = None     # (H, q, L), as fed to softmax
    attn: np.ndarray | None = None       # (H, q, L), post-softmax
    attn_used: np.ndarray | None = None  # post-mask weights (WEIGHTS mode)


def _split_heads(m: np.ndarray, num_heads: int) -> np.ndarray:
    length, d = m.shape
    return np.ascontiguousarray(
        m.reshape(length, num_heads, d // num_heads).transpose(1, 0, 2)
    )


def _merge_heads(t: np.ndarray) -> np.ndarray:
    num_heads, length, d_k = t.shape
    return np.ascontiguousarray(t.transpose(1, 0, 2).reshape(length, num_heads * d_k))


def constant_attention(v: np.ndarray) -> np.ndarray:
    """Attention output, before the output projection, when every unit is
    dropped.

    The softmax of an all-dropped score matrix is the constant 1/L, so each
    output row is the column mean of the value matrix v. The query/key
    projections never run on this path.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ShapeError(f"value matrix must be 2-D and nonempty, got {v.shape}")
    return np.tile(v.mean(axis=0), (v.shape[0], 1))


def attn_forward(x: np.ndarray, params: AttentionParams,
                 mask: MaskMatrix | None = None,
                 queries: int | None = None) -> tuple[np.ndarray, AttentionCache]:
    """Run one attention layer under the given dropout mask (None: no mask).
    queries=q computes only the first q of the L output rows (None: all)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"input must be L x d_model with L >= 1, got {x.shape}")
    length, d = x.shape
    if d != params.d_model:
        raise ShapeError(f"input width {d} != d_model {params.d_model}")
    q = length if queries is None else queries
    if not 1 <= q <= length:
        raise ShapeError(f"queries must be in [1, {length}], got {queries}")
    mode, entries = (None, None) if mask is None else (mask.mode, mask.entries)
    if entries is not None and entries.shape != (length, length):
        raise ShapeError(f"mask entries must be {length}x{length}, got {entries.shape}")

    if mode is MaskMode.ALL_DROPPED:
        v = x @ params.w_v
        pre = constant_attention(v)[:q]
        y = pre @ params.w_o
        return y, AttentionCache(mask, params, x, pre)

    num_heads, d_k = params.num_heads, params.d_k
    qh = _split_heads(x[:q] @ params.w_q, num_heads)
    kh = _split_heads(x @ params.w_k, num_heads)
    vh = _split_heads(x @ params.w_v, num_heads)
    scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(d_k)
    if mode is MaskMode.SCORES:
        scores = scores + entries[None, :q, :]

    attn = softmax_rows(scores.reshape(num_heads * q, length)).reshape(
        num_heads, q, length
    )

    attn_used = None
    if mode is MaskMode.WEIGHTS:
        attn_used = attn * entries[None, :q, :]
        if mask.rescale is not None:
            attn_used = attn_used * mask.rescale

    pre = _merge_heads((attn if attn_used is None else attn_used) @ vh)
    y = pre @ params.w_o
    cache = AttentionCache(mask, params, x, pre, qh=qh, kh=kh, vh=vh,
                           scores=scores, attn=attn, attn_used=attn_used)
    return y, cache


def attn_backward(cache: AttentionCache, dy: np.ndarray, grads: AttentionParams,
                  dscores_extra: np.ndarray | None = None) -> np.ndarray:
    """Reverse-mode pass matching a prior attn_forward.

    dy is q x d_model, one row per computed query; the returned dx is
    L x d_model, since every row feeds the keys and values. Mask entries
    are constants: no gradient flows through dropped units. The parameter
    gradients are added into grads, a caller-owned tree shaped like the
    params (such as one layer's slot of a whole-model gradient buffer).
    dscores_extra, if given, is an extra gradient injected directly on the
    pre-softmax score matrix (single-head layers only); the mask generator
    uses this to differentiate its action log-probabilities.
    """
    dy = np.asarray(dy, dtype=np.float64)
    params = cache.params
    length, d = cache.x.shape
    q = cache.pre.shape[0]
    if dy.shape != (q, d):
        raise ShapeError(f"dy shape {dy.shape} does not match output {(q, d)}")

    mask = cache.mask
    mode = None if mask is None else mask.mode
    if mode is MaskMode.ALL_DROPPED:
        if dscores_extra is not None:
            raise ContractViolation("no score matrix exists on the all-dropped path")
        dpre = dy @ params.w_o.T
        grads.w_o += cache.pre.T @ dy
        dv = np.tile(dpre.sum(axis=0) / length, (length, 1))
        grads.w_v += cache.x.T @ dv
        return dv @ params.w_v.T

    num_heads, d_k = params.num_heads, params.d_k
    dpre = dy @ params.w_o.T
    grads.w_o += cache.pre.T @ dy
    dout_h = _split_heads(dpre, num_heads)

    attn_used = cache.attn_used if cache.attn_used is not None else cache.attn
    d_attn_used = dout_h @ cache.vh.transpose(0, 2, 1)
    dvh = attn_used.transpose(0, 2, 1) @ dout_h

    d_attn = d_attn_used
    if mode is MaskMode.WEIGHTS:
        d_attn = d_attn_used * mask.entries[None, :q, :]
        if mask.rescale is not None:
            d_attn = d_attn * mask.rescale

    attn = cache.attn
    dscores = attn * (d_attn - (d_attn * attn).sum(axis=2, keepdims=True))
    if dscores_extra is not None:
        if num_heads != 1:
            raise ContractViolation("score-gradient injection needs a single head")
        dscores = dscores + np.asarray(dscores_extra, dtype=np.float64)[None, :, :]

    dscores = dscores / np.sqrt(d_k)
    dqh = dscores @ cache.kh
    dkh = dscores.transpose(0, 2, 1) @ cache.qh

    dq = _merge_heads(dqh)
    dk = _merge_heads(dkh)
    dv = _merge_heads(dvh)
    grads.w_q += cache.x[:q].T @ dq
    grads.w_k += cache.x.T @ dk
    grads.w_v += cache.x.T @ dv
    # the sum dq w_q' + dk w_k' + dv w_v' of the full-row pass, in its order
    dx = dk @ params.w_k.T
    dx[:q] += dq @ params.w_q.T
    dx += dv @ params.w_v.T
    return dx
