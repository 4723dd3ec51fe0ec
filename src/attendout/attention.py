"""One self-attention block, forward and analytic backward, with no mask
or one of three dropout modes on the attention matrix.

Modes:
  None        (no mask) plain scaled dot-product attention.
  WEIGHTS     dropped units of the post-softmax weights are set to 0. Kept
              rows simply sum to less than one unless the mask carries an
              inverted-dropout rescale, applied after the mask.
  SCORES      dropped units of the pre-softmax scores are set to NEG_INF, so
              the surviving weights renormalize to one.
  ALL_DROPPED every unit removed. The attention matrix degenerates to the
              constant 1/L, every output row (pre output projection) is the
              column mean of V, and the query/key projections plus their dot
              product are skipped entirely.

A MaskMatrix is the only way a mask reaches a layer: one is shared across
all heads of a layer, so the decision space is the L x L attention matrix
of the layer, not per head. In SCORES and WEIGHTS mode it holds that matrix
as boolean drop bits, which the layer applies itself; it is checked once,
when it is built, so a layer only matches its side to the sequence length.
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

    drop is an L x L bool matrix (True = unit dropped) in SCORES and WEIGHTS
    mode; a SCORES mask keeps at least one unit per row, since a fully
    dropped row has no softmax. ALL_DROPPED holds no drop matrix. rescale,
    WEIGHTS mode only, multiplies the masked weights (inverted dropout).
    Construction raises ContractViolation on a drop matrix that breaks these
    rules.
    """

    mode: MaskMode
    drop: np.ndarray | None = None
    rescale: float | None = None

    def __post_init__(self):
        d = self.drop
        if self.mode is MaskMode.ALL_DROPPED:
            if d is not None:
                raise ContractViolation("an ALL_DROPPED mask holds no drop matrix")
            return
        shape, dtype = np.shape(d), getattr(d, "dtype", None)
        if dtype != np.bool_ or len(shape) != 2 or shape[0] != shape[1]:
            raise ContractViolation(
                f"{self.mode} drop bits must be square bool, got {dtype} {shape}")
        if self.mode is MaskMode.SCORES and d.all(axis=1).any():
            raise ContractViolation(
                "SCORES mask has a fully dropped row; use MaskMode.ALL_DROPPED"
            )

    @staticmethod
    def all_dropped() -> "MaskMatrix":
        return MaskMatrix(MaskMode.ALL_DROPPED)

    @staticmethod
    def weights_from_drop_bits(bits: np.ndarray, rescale: float | None = None) -> "MaskMatrix":
        """Build a WEIGHTS mask from drop bits (1 = drop). A fully dropped
        row is allowed: it zeroes that row's mix."""
        return MaskMatrix(MaskMode.WEIGHTS, np.asarray(bits) != 0, rescale)

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
        drop = bits != 0
        if drop.all(axis=1).any():
            return MaskMatrix.all_dropped()
        return MaskMatrix(MaskMode.SCORES, drop)


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
    """Forward intermediates needed by attn_backward; q query rows of L.
    With q == L the heads' Q, K and V are kept; with q < L only the
    products the folded path forms (see attn_forward)."""

    mask: MaskMatrix | None
    params: AttentionParams
    x: np.ndarray
    pre: np.ndarray                      # q x d_model, input to w_o
    # regular modes
    qh: np.ndarray | None = None         # (H, q, d_k), q == L
    kh: np.ndarray | None = None         # (H, L, d_k), q == L
    vh: np.ndarray | None = None
    scores: np.ndarray | None = None     # (H, q, L), as fed to softmax
    attn: np.ndarray | None = None       # (H, q, L), post-softmax
    attn_used: np.ndarray | None = None  # post-mask weights (WEIGHTS mode)
    q_blocks: np.ndarray | None = None   # (H q, d_model), block-diagonal Q, q < L
    qk: np.ndarray | None = None         # (H q, d_model), q_blocks @ w_k', q < L
    ax: np.ndarray | None = None         # (H q, d_model), weights @ x, q < L


def _split_heads(m: np.ndarray, num_heads: int) -> np.ndarray:
    length, d = m.shape
    return m.reshape(length, num_heads, d // num_heads).transpose(1, 0, 2)


def _merge_heads(t: np.ndarray) -> np.ndarray:
    num_heads, length, d_k = t.shape
    return t.transpose(1, 0, 2).reshape(length, num_heads * d_k)


def _block_diagonal(m: np.ndarray, num_heads: int) -> np.ndarray:
    """(r, H c) with the heads side by side -> (H r, H c), zero but for
    head h's r x c block at block row h, block column h."""
    rows, width = m.shape
    cols = width // num_heads
    out = np.zeros((num_heads * rows, width))
    for h in range(num_heads):
        out[h * rows:(h + 1) * rows, h * cols:(h + 1) * cols] = m[:, h * cols:(h + 1) * cols]
    return out


def _diagonal_blocks(m: np.ndarray, num_heads: int) -> np.ndarray:
    """(H r, H c) -> its H diagonal r x c blocks side by side, (r, H c)."""
    rows, width = m.shape[0] // num_heads, m.shape[1]
    cols = width // num_heads
    out = np.empty((rows, width))
    for h in range(num_heads):
        out[:, h * cols:(h + 1) * cols] = m[h * rows:(h + 1) * rows, h * cols:(h + 1) * cols]
    return out


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
    queries=q computes only the first q of the L output rows (None: all).

    With q < L the products are taken in the other order, so no L x d x d
    key or value projection runs: head h's scores are (Q_h W_k,h') x' /
    sqrt(d_k) and its output is (weights_h x) W_v,h, each for all heads at
    once as 2-D products through the block-diagonal (H q, d) matrix of Q.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"input must be L x d_model with L >= 1, got {x.shape}")
    length, d = x.shape
    if d != params.d_model:
        raise ShapeError(f"input width {d} != d_model {params.d_model}")
    q = length if queries is None else queries
    if not 1 <= q <= length:
        raise ShapeError(f"queries must be in [1, {length}], got {queries}")
    mode, drop = (None, None) if mask is None else (mask.mode, mask.drop)
    if drop is not None and drop.shape != (length, length):
        raise ShapeError(f"mask must be {length}x{length}, got {drop.shape}")

    if mode is MaskMode.ALL_DROPPED:
        v = x @ params.w_v
        pre = constant_attention(v)[:q]
        y = pre @ params.w_o
        return y, AttentionCache(mask, params, x, pre)

    num_heads, d_k = params.num_heads, params.d_k
    folded = q < length
    if folded:
        q_blocks = _block_diagonal(x[:q] @ params.w_q, num_heads)
        qk = q_blocks @ params.w_k.T
        scores = (qk @ x.T / np.sqrt(d_k)).reshape(num_heads, q, length)
    else:
        qh = _split_heads(x @ params.w_q, num_heads)
        kh = _split_heads(x @ params.w_k, num_heads)
        vh = _split_heads(x @ params.w_v, num_heads)
        scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(d_k)
    if mode is MaskMode.SCORES:
        scores = np.where(drop[:q], NEG_INF, scores)

    attn = softmax_rows(scores.reshape(num_heads * q, length)).reshape(
        num_heads, q, length
    )

    attn_used = None
    if mode is MaskMode.WEIGHTS:
        attn_used = np.where(drop[:q], 0.0, attn)
        if mask.rescale is not None:
            attn_used *= mask.rescale
    weights = attn if attn_used is None else attn_used

    if folded:
        ax = weights.reshape(num_heads * q, length) @ x
        pre = _diagonal_blocks(ax @ params.w_v, num_heads)
        cache = AttentionCache(mask, params, x, pre, scores=scores, attn=attn,
                               attn_used=attn_used, q_blocks=q_blocks, qk=qk, ax=ax)
    else:
        pre = _merge_heads(weights @ vh)
        cache = AttentionCache(mask, params, x, pre, qh=qh, kh=kh, vh=vh,
                               scores=scores, attn=attn, attn_used=attn_used)
    return pre @ params.w_o, cache


def attn_backward(cache: AttentionCache, dy: np.ndarray, grads: AttentionParams,
                  dscores_extra: np.ndarray | None = None) -> np.ndarray:
    """Reverse-mode pass matching a prior attn_forward.

    dy is q x d_model, one row per computed query; the returned dx is
    L x d_model, since every row feeds the keys and values. Drop bits
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
    attn_used = cache.attn_used if cache.attn_used is not None else cache.attn
    folded = cache.qk is not None
    if folded:
        # pre = diagonal blocks of ax @ w_v, and ax = weights @ x
        dm = _block_diagonal(dpre, num_heads)
        grads.w_v += cache.ax.T @ dm
        dax = dm @ params.w_v.T
        d_attn_used = (dax @ cache.x.T).reshape(num_heads, q, length)
        dx_v = attn_used.reshape(num_heads * q, length).T @ dax
    else:
        dout_h = _split_heads(dpre, num_heads)
        d_attn_used = dout_h @ cache.vh.transpose(0, 2, 1)
        dvh = attn_used.transpose(0, 2, 1) @ dout_h

    d_attn = d_attn_used
    if mode is MaskMode.WEIGHTS:
        d_attn = np.where(mask.drop[:q], 0.0, d_attn_used)
        if mask.rescale is not None:
            d_attn *= mask.rescale

    attn = cache.attn
    dscores = attn * (d_attn - (d_attn * attn).sum(axis=2, keepdims=True))
    if dscores_extra is not None:
        if num_heads != 1:
            raise ContractViolation("score-gradient injection needs a single head")
        dscores = dscores + np.asarray(dscores_extra, dtype=np.float64)[None, :, :]

    dscores = dscores / np.sqrt(d_k)
    if folded:
        # scores = qk @ x' / sqrt(d_k), and qk = q_blocks @ w_k'
        ds = dscores.reshape(num_heads * q, length)
        dqk = ds @ cache.x
        grads.w_k += dqk.T @ cache.q_blocks
        dq = _diagonal_blocks(dqk @ params.w_k, num_heads)
        grads.w_q += cache.x[:q].T @ dq
        dx = ds.T @ cache.qk
        dx[:q] += dq @ params.w_q.T
        dx += dx_v
        return dx

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
