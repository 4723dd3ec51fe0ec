"""Random attention regularizers used as ablation baselines.

Four are provided: per-unit Bernoulli dropout of the attention matrix
(scores mode by default, weights mode behind a flag), whole-block skipping,
attention-only skipping via the constant-attention path, and a scheduled
Bernoulli dropout whose per-layer probability follows a piecewise-linear
curve over optimizer steps.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .attention import MaskMatrix
from .numkernel import ConfigError, RngState, bernoulli_array


def vanilla_attention_mask(length: int, p: float, rng: RngState,
                           mode: str = "scores", rescale: bool = False) -> MaskMatrix:
    """Drop each of the L^2 attention units independently with probability p.

    In scores mode a fully dropped row cannot be represented, so any such
    row escalates the whole layer to the constant-attention path (at the
    probabilities used in practice this is vanishingly rare). Weights mode
    keeps the literal drop bits; a dead row there just zeroes that row's
    mix, which is well defined. rescale (weights mode only; scores mode
    renormalizes through the softmax) scales kept weights by 1 / (1 - p).
    """
    if length < 1:
        raise ConfigError(f"mask side must be >= 1, got {length}")
    bits = bernoulli_array(p, (length, length), rng)
    if mode == "scores":
        return MaskMatrix.from_drop_bits(bits)
    if mode == "weights":
        scale = 1.0 / (1.0 - p) if rescale and p < 1.0 else None
        return MaskMatrix.weights_from_drop_bits(bits, scale)
    raise ConfigError(f"unknown vanilla dropout mode {mode!r}")


def layerdrop_decision(num_blocks: int, p: float, rng: RngState) -> np.ndarray:
    """Per-block Bernoulli(p) bits. For layerdrop a set bit passes the whole
    encoder block through as identity (the residual stream survives
    untouched); for attn_layerdrop it replaces only the attention sublayer
    with the constant path, while feed-forward, residuals and layer norms
    still run."""
    return bernoulli_array(p, (num_blocks,), rng)


@dataclass
class Schedule:
    """Piecewise-linear drop probability per layer over optimizer steps.

    Either the (initial probability, slope per step) pair drives a clamped
    line, or explicit breakpoints are interpolated; outside the breakpoint
    range the nearest endpoint holds.
    """

    p0: np.ndarray
    slope: np.ndarray
    breakpoints: list[list[tuple[int, float]]] | None = None

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=np.float64)
        self.slope = np.asarray(self.slope, dtype=np.float64)
        if self.p0.shape != self.slope.shape or self.p0.ndim != 1:
            raise ConfigError("p0 and slope must be equal-length vectors")
        if self.breakpoints is not None:
            if len(self.breakpoints) != self.p0.size:
                raise ConfigError("need one breakpoint list per layer")
            for layer, pts in enumerate(self.breakpoints):
                if not pts:
                    raise ConfigError(f"layer {layer} has no breakpoints")
                steps = [s for s, _ in pts]
                if sorted(set(steps)) != steps:
                    raise ConfigError(f"layer {layer} breakpoint steps must strictly increase")
                for s, prob in pts:
                    if not 0.0 <= prob <= 1.0:
                        raise ConfigError(f"breakpoint probability {prob} outside [0, 1]")

    @property
    def num_layers(self) -> int:
        return self.p0.size

    @staticmethod
    def linear(p0, slope, num_layers: int) -> "Schedule":
        p0 = np.broadcast_to(np.atleast_1d(np.asarray(p0, float)), (num_layers,)).copy()
        slope = np.broadcast_to(np.atleast_1d(np.asarray(slope, float)), (num_layers,)).copy()
        return Schedule(p0, slope)

    @staticmethod
    def from_breakpoints(points: list[list[tuple[int, float]]]) -> "Schedule":
        n = len(points)
        return Schedule(np.zeros(n), np.zeros(n), points)


def schedule_probability(schedule: Schedule, layer: int, step: int) -> float:
    """Evaluate the schedule; always lands in [0, 1]."""
    if not 0 <= layer < schedule.num_layers:
        raise IndexError(f"layer {layer} outside schedule of {schedule.num_layers}")
    if schedule.breakpoints is not None:
        pts = schedule.breakpoints[layer]
        steps = [s for s, _ in pts]
        i = bisect.bisect_right(steps, step)
        if i == 0:
            return pts[0][1]
        if i == len(pts):
            return pts[-1][1]
        (s0, q0), (s1, q1) = pts[i - 1], pts[i]
        if step == s0:
            return q0
        frac = (step - s0) / (s1 - s0)
        return float(np.clip(q0 + frac * (q1 - q0), 0.0, 1.0))
    value = schedule.p0[layer] + schedule.slope[layer] * step
    return float(np.clip(value, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Schedule file format: one breakpoint per line, "layer step probability",
# '#' comments and blank lines allowed. Layers may appear in any order but
# steps must strictly increase within a layer.
# ---------------------------------------------------------------------------


def load_schedule_file(path, num_layers: int) -> Schedule:
    per_layer: dict[int, list[tuple[int, float]]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ConfigError(
                f"{path}:{lineno}: expected 'layer step probability', got {raw.strip()!r}"
            )
        try:
            layer, step, prob = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        if not 0 <= layer < num_layers:
            raise ConfigError(
                f"{path}:{lineno}: layer {layer} outside [0, {num_layers})"
            )
        per_layer.setdefault(layer, []).append((step, prob))
    missing = [i for i in range(num_layers) if i not in per_layer]
    if missing:
        raise ConfigError(f"{path}: no breakpoints for layer(s) {missing}")
    try:
        return Schedule.from_breakpoints([per_layer[i] for i in range(num_layers)])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

