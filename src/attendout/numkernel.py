"""Dense float64 kernels and the deterministic random stream.

Everything above this module (attention blocks, task models, the mask
generator, the trainers) is built from these primitives. All arithmetic is
64-bit: the models are tiny and the finite-difference tolerances in the
test suite leave no headroom for float32.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

# Pre-softmax drop sentinel. A large finite negative rather than IEEE -inf,
# so max-subtraction softmax can never produce inf - inf = NaN; in a row
# with any kept unit, exp(NEG_INF - rowmax) underflows to exactly 0.
NEG_INF = -1e30


class ShapeError(ValueError):
    """Operand dimensions do not line up."""


class OracleError(RuntimeError):
    """A verification oracle evaluated to a non-finite value or was asked
    for more work than its stated bound allows."""


class ContractViolation(RuntimeError):
    """An input breaks a documented precondition between modules."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite gradient."""


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or inconsistent."""


# ---------------------------------------------------------------------------
# Counter-based random stream
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@functools.lru_cache(maxsize=1024)
def _stream_key(seed: int, stream: int) -> np.uint64:
    """The word every counter of a stream is mixed with, made once per stream."""
    return np.uint64(_splitmix64(_splitmix64(seed) ^ stream))


def _label_hash(label) -> int:
    if isinstance(label, bool):
        raise TypeError("stream labels must be str or int")
    if isinstance(label, int):
        data = b"i" + label.to_bytes(16, "little", signed=True)
    elif isinstance(label, str):
        data = b"s" + label.encode("utf-8")
    else:
        raise TypeError(f"stream labels must be str or int, got {type(label)}")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


@dataclass
class RngState:
    """Counter-based random stream.

    Every draw is a pure hash of (seed, stream, counter); the counter then
    advances by the number of 64-bit words consumed, so any recorded state
    replays the identical sequence. `derive` opens an independent
    sub-stream without touching this one, which is how data order, mask
    sampling, evaluation draws and model syncing are kept from ever
    contending for the same draws. Every sampler takes its words from
    `_u64_array`, the one word path; bounded integers use exact rejection
    and consume words in the order one `randint` call per bound would.
    """

    seed: int
    stream: int = 0
    counter: int = 0

    def _u64_array(self, n: int) -> np.ndarray:
        """The next n words: SplitMix64 of the stream key xor each counter."""
        counters = np.uint64(self.counter & _MASK64) + np.arange(n, dtype=np.uint64)
        self.counter = (self.counter + n) & _MASK64
        z = (_stream_key(self.seed, self.stream) ^ counters) + np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def uniform(self) -> float:
        """One draw, uniform on [0, 1)."""
        return float(self.uniform_array(1)[0])

    def uniform_array(self, n: int) -> np.ndarray:
        return (self._u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform_open_array(self, n: int) -> np.ndarray:
        """n draws, uniform on the open interval (0, 1); safe under log.

        Uses 52 bits so the +0.5 offset stays exactly representable and no
        draw can round up to 1.0.
        """
        bits = (self._u64_array(n) >> np.uint64(12)).astype(np.float64)
        return (bits + 0.5) * 2.0**-52

    def normal_array(self, shape) -> np.ndarray:
        n = int(np.prod(shape))
        u = self.uniform_open_array(2 * n)
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        return (r * np.cos(2.0 * np.pi * u[1::2])).reshape(shape)

    def integers(self, bounds) -> np.ndarray:
        """A uniform uint64 in [0, b) for each bound b in [1, 2**64), by exact
        rejection: a word above 2**64 - 1 - (2**64 mod b) is skipped, and the
        bounds from it on are drawn again from the word after it."""
        b = np.asarray(bounds).reshape(-1)
        if b.size and (b.dtype.kind not in "iu" or b.min() < 1):
            raise ValueError(f"bounds must be integers in [1, 2**64), got {bounds!r}")
        b = b.astype(np.uint64)
        top = np.uint64(_MASK64) - (np.uint64(0) - b) % b
        out, k = np.empty(b.size, dtype=np.uint64), 0
        while k < b.size:
            w = self._u64_array(b.size - k)
            bad = np.flatnonzero(w > top[k:])
            m = int(bad[0]) if bad.size else w.size
            out[k:k + m] = w[:m] % b[k:k + m]
            self.counter = (self.counter - w.size + m + (bad.size > 0)) & _MASK64
            k += m
        return out

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        return int(self.integers([n])[0])

    def permutation(self, n: int) -> np.ndarray:
        out = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), self.integers(np.arange(n, 1, -1)).tolist()):
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=np.int64)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """First k entries of a partial Fisher-Yates shuffle of range(n)."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} of {n} without replacement")
        pool = list(range(n))
        for i, j in enumerate(self.integers(np.arange(n, n - k, -1)).tolist()):
            pool[i], pool[i + j] = pool[i + j], pool[i]
        return np.array(pool[:k], dtype=np.int64)

    def derive(self, label) -> "RngState":
        """Open an independent sub-stream keyed by a label.

        Pure: does not advance this stream, and the same label always yields
        the same sub-stream. Distinct labels give streams whose draw
        sequences never coincide with each other or with the parent.
        """
        child = _splitmix64(self.stream ^ _label_hash(label))
        return RngState(self.seed, child, 0)


# ---------------------------------------------------------------------------
# Dense kernels
# ---------------------------------------------------------------------------


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction.

    Units a SCORES mask drops reach it as NEG_INF, set by the attention
    layer, and come out as exactly 0 in any row that keeps a unit.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D input, got shape {m.shape}")
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_logits(logits: np.ndarray, labels,
                         batch: int | None = None) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of the true class, plus d(loss)/d(logits).

    dlogits is (softmax - onehot) / batch, so summing per-example backward
    passes yields the batch-mean gradient with no extra scaling. batch
    defaults to the number of rows; a chunk of a larger batch passes the
    batch's size, and each row's dlogits depends on that row alone.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if np.any(labels < 0) or np.any(labels >= c):
        bad = labels[(labels < 0) | (labels >= c)]
        raise IndexError(f"label(s) {bad.tolist()} outside [0, {c})")
    rowmax = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - rowmax)
    z = e.sum(axis=1, keepdims=True)
    lse = np.log(z[:, 0]) + rowmax[:, 0]
    loss = float(np.mean(lse - logits[np.arange(n), labels]))
    probs = e / z
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / (n if batch is None else batch)


def log_sigmoid(x):
    """Numerically stable log(sigmoid(x)); works on scalars and arrays."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return np.exp(log_sigmoid(x))


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian error linear unit (tanh form): returns (gelu(x), t), where t
    is the tanh that gelu_grad takes back instead of computing it again.

    The cube is two multiplies: numpy's general `x**3` goes through pow and
    costs about ten times the rest of the kernel.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative of gelu at x, given the t that gelu(x) returned."""
    x = np.asarray(x, dtype=np.float64)
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * (x * x))


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------


def bernoulli_array(p: float, shape, rng: RngState) -> np.ndarray:
    """Vectorized Bernoulli(p); draw-for-draw identical to a scalar loop in
    row-major order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Bernoulli probability must be in [0, 1], got {p}")
    n = int(np.prod(shape))
    return (rng.uniform_array(n) < p).astype(np.uint8).reshape(shape)


def gumbel_binary_sample_array(logits: np.ndarray, rng: RngState) -> np.ndarray:
    """Binary actions via the Gumbel-max trick over the two logits {logit, 0}
    of each unit: bit 1 with probability sigmoid(logit). Units are visited
    in row-major order and consume two draws each, one Gumbel per action."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    n = logits.size
    u = rng.uniform_open_array(2 * n)
    g = -np.log(-np.log(u))
    g_one = g[0::2].reshape(logits.shape)
    g_zero = g[1::2].reshape(logits.shape)
    return (logits + g_one > g_zero).astype(np.uint8)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def finite_diff_grad(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    f must be deterministic given theta (freeze any RNG before calling).
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1:
        raise ShapeError(f"theta must be a flat vector, got shape {theta.shape}")
    grad = np.empty_like(theta)
    for i in range(theta.size):
        probe = theta.copy()
        probe[i] = theta[i] + h
        f_plus = f(probe)
        probe[i] = theta[i] - h
        f_minus = f(probe)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise OracleError(f"non-finite evaluation at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
