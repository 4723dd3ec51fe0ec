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

The layer runs on one L x d_model sequence or on a stack (..., L, d_model)
of them. Every product is a stacked matmul, which numpy hands to BLAS one
item at a time, and every sum keeps its per-sequence association, so each
item of a stack gets the bits it would get alone. A MaskStack carries one
MaskMatrix per item of a stack; a MaskMatrix given with a stack applies to
every item.
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
        (its softmax is undefined); the SCORES constructor refuses such a
        mask, and the refusal escalates the layer to constant attention.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
            raise ShapeError(f"drop bits must be square, got {bits.shape}")
        try:
            return MaskMatrix(MaskMode.SCORES, bits != 0)
        except ContractViolation:
            return MaskMatrix.all_dropped()


class MaskStack:
    """One layer's masks for a stack of B items, from `stack`.

    drop holds the (B, L, L) drop bits, all False for an item without bits
    (None when no item has bits); mode and rescale are those of the first
    item with bits (else ALL_DROPPED), so a SCORES stack may hold items that
    from_drop_bits escalated. paths groups the items by how the layer runs
    them, one (item indices, mode, rescale) triple per kind of item; the
    ALL_DROPPED path holds the constant items. (A plain class: a dataclass
    costs about 1 ms of import time.)
    """

    def __init__(self, mode: MaskMode, drop, rescale: float | None, paths: tuple):
        self.mode, self.drop, self.rescale, self.paths = mode, drop, rescale, paths

    @staticmethod
    def stack(masks: list[MaskMatrix | None]) -> "MaskStack | None":
        """The items' masks (None: unmasked) as one stack; None when no item
        has a mask."""
        if all(m is None for m in masks):
            return None
        groups = {}
        for i, m in enumerate(masks):
            groups.setdefault((None, None) if m is None else (m.mode, m.rescale), []).append(i)
        paths = tuple((np.array(items), mode, rescale)
                      for (mode, rescale), items in groups.items())
        with_bits = [m for m in masks if m is not None and m.drop is not None]
        if not with_bits:
            return MaskStack(MaskMode.ALL_DROPPED, None, None, paths)
        keep_all = np.zeros_like(with_bits[0].drop)
        drop = np.stack([keep_all if m is None or m.drop is None else m.drop for m in masks])
        return MaskStack(with_bits[0].mode, drop, with_bits[0].rescale, paths)


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
    """Forward intermediates needed by attn_backward; q query rows of L,
    with leading axes as in x. With q == L the heads' Q, K and V are kept;
    with q < L only the products the folded path forms (see attn_forward).
    A MaskStack with several paths keeps one cache per path in parts, as
    (item indices, cache) pairs, and only x and pre itself."""

    params: AttentionParams
    x: np.ndarray
    pre: np.ndarray                      # (..., q, d_model), input to w_o
    mode: MaskMode | None = None
    drop: np.ndarray | None = None
    rescale: float | None = None
    # regular modes
    qh: np.ndarray | None = None         # (..., H, q, d_k), q == L
    kh: np.ndarray | None = None         # (..., H, L, d_k), q == L
    vh: np.ndarray | None = None
    scores: np.ndarray | None = None     # (..., H, q, L), as fed to softmax
    attn: np.ndarray | None = None       # (..., H, q, L), post-softmax
    attn_used: np.ndarray | None = None  # post-mask weights (WEIGHTS mode)
    q_blocks: np.ndarray | None = None   # (..., H q, d_model), block-diagonal Q, q < L
    qk: np.ndarray | None = None         # (..., H q, d_model), q_blocks @ w_k', q < L
    ax: np.ndarray | None = None         # (..., H q, d_model), weights @ x, q < L
    parts: list | None = None


def _t(m: np.ndarray) -> np.ndarray:
    """Each item's matrix transposed."""
    return m.swapaxes(-1, -2)


def _split_heads(m: np.ndarray, num_heads: int) -> np.ndarray:
    """(..., L, H d_k) -> (..., H, L, d_k), a view."""
    return m.reshape(m.shape[:-1] + (num_heads, m.shape[-1] // num_heads)).swapaxes(-2, -3)


def _merge_heads(t: np.ndarray) -> np.ndarray:
    t = t.swapaxes(-2, -3)
    return t.reshape(t.shape[:-2] + (-1,))


def _block_diagonal(m: np.ndarray, num_heads: int) -> np.ndarray:
    """(..., r, H c) with the heads side by side -> (..., H r, H c), zero
    but for head h's r x c block at block row h, block column h."""
    rows, width = m.shape[-2:]
    cols = width // num_heads
    out = np.zeros(m.shape[:-2] + (num_heads * rows, width))
    for h in range(num_heads):
        out[..., h * rows:(h + 1) * rows, h * cols:(h + 1) * cols] = \
            m[..., h * cols:(h + 1) * cols]
    return out


def _diagonal_blocks(m: np.ndarray, num_heads: int) -> np.ndarray:
    """(..., H r, H c) -> its H diagonal r x c blocks side by side, (..., r, H c)."""
    rows, width = m.shape[-2] // num_heads, m.shape[-1]
    cols = width // num_heads
    out = np.empty(m.shape[:-2] + (rows, width))
    for h in range(num_heads):
        out[..., h * cols:(h + 1) * cols] = \
            m[..., h * rows:(h + 1) * rows, h * cols:(h + 1) * cols]
    return out


def constant_attention(v: np.ndarray) -> np.ndarray:
    """Attention output, before the output projection, when every unit is
    dropped; v is one L x d value matrix or a stack of them.

    The softmax of an all-dropped score matrix is the constant 1/L, so each
    output row is the column mean of the value matrix v. The query/key
    projections never run on this path.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim < 2 or v.shape[-2] < 1:
        raise ShapeError(f"value matrix must be L x d with L >= 1, got {v.shape}")
    return np.repeat(v.mean(axis=-2, keepdims=True), v.shape[-2], axis=-2)


def attn_forward(x: np.ndarray, params: AttentionParams,
                 mask: MaskMatrix | MaskStack | None = None,
                 queries: int | None = None) -> tuple[np.ndarray, AttentionCache]:
    """Run one attention layer over x, one L x d_model sequence or a stack
    (..., L, d_model) of them, under the given dropout mask (None: no mask).
    queries=q computes only the first q of the L output rows (None: all).

    With q < L the products are taken in the other order, so no L x d x d
    key or value projection runs: head h's scores are (Q_h W_k,h') x' /
    sqrt(d_k) and its output is (weights_h x) W_v,h, each for all heads at
    once through the block-diagonal (H q, d) matrix of Q.

    A MaskStack whose items take several paths (say SCORES items and items
    escalated to constant attention) runs each path on its items in this
    one call.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ShapeError(f"input must be L x d_model with L >= 1, got {x.shape}")
    length, d = x.shape[-2:]
    if d != params.d_model:
        raise ShapeError(f"input width {d} != d_model {params.d_model}")
    q = length if queries is None else queries
    if not 1 <= q <= length:
        raise ShapeError(f"queries must be in [1, {length}], got {queries}")
    if mask is not None and mask.drop is not None and mask.drop.shape not in (
            (length, length), x.shape[:-2] + (length, length)):
        raise ShapeError(f"mask must be {length}x{length} per item, got {mask.drop.shape}")
    if isinstance(mask, MaskStack) and len(mask.paths) > 1:
        pre = np.empty(x.shape[:-2] + (q, d))
        parts = []
        for items, mode, rescale in mask.paths:
            drop = None if mask.drop is None else mask.drop[items]
            pre[items], part = _attend(x[items], params, mode, drop, rescale, q)
            parts.append((items, part))
        cache = AttentionCache(params, x, pre, parts=parts)
    elif mask is None:
        pre, cache = _attend(x, params, None, None, None, q)
    else:
        pre, cache = _attend(x, params, mask.mode, mask.drop, mask.rescale, q)
    return pre @ params.w_o, cache


def _attend(x, params: AttentionParams, mode, drop, rescale, q: int):
    """(pre, cache): the input to w_o of every item of x, all under one mode."""
    if mode is MaskMode.ALL_DROPPED:
        pre = constant_attention(x @ params.w_v)[..., :q, :]
        return pre, AttentionCache(params, x, pre, mode)

    num_heads, d_k = params.num_heads, params.d_k
    lead, length = x.shape[:-2], x.shape[-2]
    folded = q < length
    if folded:
        q_blocks = _block_diagonal(x[..., :q, :] @ params.w_q, num_heads)
        qk = q_blocks @ params.w_k.T
        scores = (qk @ _t(x) / np.sqrt(d_k)).reshape(lead + (num_heads, q, length))
    else:
        qh = _split_heads(x @ params.w_q, num_heads)
        kh = _split_heads(x @ params.w_k, num_heads)
        vh = _split_heads(x @ params.w_v, num_heads)
        scores = qh @ _t(kh) / np.sqrt(d_k)
    if mode is MaskMode.SCORES:
        scores = np.where(drop[..., None, :q, :], NEG_INF, scores)

    attn = softmax_rows(scores.reshape(-1, length)).reshape(scores.shape)

    attn_used = None
    if mode is MaskMode.WEIGHTS:
        attn_used = np.where(drop[..., None, :q, :], 0.0, attn)
        if rescale is not None:
            attn_used *= rescale
    weights = attn if attn_used is None else attn_used

    if folded:
        ax = weights.reshape(lead + (num_heads * q, length)) @ x
        pre = _diagonal_blocks(ax @ params.w_v, num_heads)
        return pre, AttentionCache(params, x, pre, mode, drop, rescale, scores=scores,
                                   attn=attn, attn_used=attn_used, q_blocks=q_blocks,
                                   qk=qk, ax=ax)
    pre = _merge_heads(weights @ vh)
    return pre, AttentionCache(params, x, pre, mode, drop, rescale, qh=qh, kh=kh, vh=vh,
                               scores=scores, attn=attn, attn_used=attn_used)


def attn_backward(cache: AttentionCache, dy: np.ndarray, grads: AttentionParams,
                  dscores_extra: np.ndarray | None = None) -> np.ndarray:
    """Reverse-mode pass matching a prior attn_forward.

    dy is (..., q, d_model), one row per computed query; the returned dx is
    (..., L, d_model), since every row feeds the keys and values. Drop bits
    are constants: no gradient flows through dropped units. The parameter
    gradients are added into grads, a caller-owned tree shaped like the
    params (such as one layer's slot of a whole-model gradient buffer), one
    item after another. dscores_extra, if given, is an extra gradient
    injected directly on the pre-softmax score matrix (single-head layers
    only); the mask generator uses this to differentiate its action
    log-probabilities.
    """
    dy = np.asarray(dy, dtype=np.float64)
    params = cache.params
    if dy.shape != cache.pre.shape:
        raise ShapeError(f"dy shape {dy.shape} does not match output {cache.pre.shape}")

    dpre = dy @ params.w_o.T
    ptree.add_items(grads.w_o, _t(cache.pre) @ dy)
    if cache.parts is None:
        return _attend_backward(cache, dpre, dscores_extra,
                                lambda name, stack: ptree.add_items(getattr(grads, name), stack))

    if dscores_extra is not None:
        raise ContractViolation("score-gradient injection needs one path per call")
    dx = np.empty_like(cache.x)
    terms = {}  # projection name -> {item index: its gradient}
    for items, part in cache.parts:
        dx[items] = _attend_backward(
            part, dpre[items], None,
            lambda name, stack: terms.setdefault(name, {}).update(zip(items.tolist(), stack)))
    for name, by_item in terms.items():
        acc = getattr(grads, name)
        for i in sorted(by_item):
            acc += by_item[i]
    return dx


def _attend_backward(cache: AttentionCache, dpre, dscores_extra, add) -> np.ndarray:
    """dx of one path, given the gradient on pre; add(name, per-item
    gradients) takes the gradient of each projection the path uses besides
    w_o as soon as it is formed."""
    params, x = cache.params, cache.x
    lead, length = x.shape[:-2], x.shape[-2]
    q = dpre.shape[-2]
    if cache.mode is MaskMode.ALL_DROPPED:
        if dscores_extra is not None:
            raise ContractViolation("no score matrix exists on the all-dropped path")
        dv = np.repeat(dpre.sum(axis=-2, keepdims=True) / length, length, axis=-2)
        add("w_v", _t(x) @ dv)
        return dv @ params.w_v.T

    num_heads, d_k = params.num_heads, params.d_k
    attn_used = cache.attn_used if cache.attn_used is not None else cache.attn
    folded = cache.qk is not None
    if folded:
        # pre = diagonal blocks of ax @ w_v, and ax = weights @ x
        dm = _block_diagonal(dpre, num_heads)
        add("w_v", _t(cache.ax) @ dm)
        dax = dm @ params.w_v.T
        d_attn = (dax @ _t(x)).reshape(lead + (num_heads, q, length))
        dx_v = _t(attn_used.reshape(lead + (num_heads * q, length))) @ dax
    else:
        dout_h = _split_heads(dpre, num_heads)
        d_attn = dout_h @ _t(cache.vh)
        dv = _merge_heads(_t(attn_used) @ dout_h)

    if cache.mode is MaskMode.WEIGHTS:
        d_attn = np.where(cache.drop[..., None, :q, :], 0.0, d_attn)
        if cache.rescale is not None:
            d_attn *= cache.rescale

    attn = cache.attn
    dscores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    if dscores_extra is not None:
        if num_heads != 1:
            raise ContractViolation("score-gradient injection needs a single head")
        dscores = dscores + np.asarray(dscores_extra, dtype=np.float64)[..., None, :, :]

    dscores = dscores / np.sqrt(d_k)
    if folded:
        # scores = qk @ x' / sqrt(d_k), and qk = q_blocks @ w_k'
        ds = dscores.reshape(lead + (num_heads * q, length))
        dqk = ds @ x
        add("w_k", _t(dqk) @ cache.q_blocks)
        dq = _diagonal_blocks(dqk @ params.w_k, num_heads)
        add("w_q", _t(x[..., :q, :]) @ dq)
        dx = _t(ds) @ cache.qk
        dx[..., :q, :] += dq @ params.w_q.T
        dx += dx_v
        return dx

    dq = _merge_heads(dscores @ cache.kh)
    dk = _merge_heads(_t(dscores) @ cache.qh)
    add("w_q", _t(x[..., :q, :]) @ dq)
    add("w_k", _t(x) @ dk)
    add("w_v", _t(x) @ dv)
    # the sum dq w_q' + dk w_k' + dv w_v' of the full-row pass, in its order
    dx = dk @ params.w_k.T
    dx[..., :q, :] += dq @ params.w_q.T
    dx += dv @ params.w_v.T
    return dx
