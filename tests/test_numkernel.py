import math

import numpy as np
import pytest

from attendout import numkernel as nk
from conftest import gumbel_binary_sample, normalized_logprob_reference


# ---------------------------------------------------------------------------
# softmax_rows
# ---------------------------------------------------------------------------


def test_softmax_uniform_row():
    out = nk.softmax_rows(np.zeros((1, 4)))
    assert np.array_equal(out, np.full((1, 4), 0.25))


def test_softmax_masked_limit():
    out = nk.softmax_rows(np.array([[0.0, nk.NEG_INF]]))
    assert out[0, 0] == 1.0 and out[0, 1] == 0.0


def test_softmax_matches_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    row = [1.0, 2.0, 3.0]
    exps = [mpmath.e ** v for v in row]
    total = sum(exps)
    expected = np.array([float(e / total) for e in exps])
    out = nk.softmax_rows(np.array([row]))
    assert np.abs(out[0] - expected).max() <= 1e-15


def test_softmax_row_sums_property():
    rng = nk.RngState(3)
    for _ in range(50):
        m = rng.normal_array((6, 9)) * 5
        drop = rng.uniform_array(6 * 9).reshape(6, 9) < 0.4
        drop[:, 0] = False  # keep one live entry per row
        m[drop] = nk.NEG_INF
        out = nk.softmax_rows(m)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.all(out[drop] == 0.0)


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_equal_logits_is_log_c():
    for c in (2, 3, 7):
        loss, _ = nk.cross_entropy_logits(np.ones((4, c)), [0] * 4)
        assert abs(loss - math.log(c)) <= 1e-12


def test_cross_entropy_saturated():
    loss, _ = nk.cross_entropy_logits(np.array([[30.0, -30.0]]), [0])
    assert loss <= 1e-12


def test_cross_entropy_gradient_matches_finite_difference():
    rng = nk.RngState(11)
    logits = rng.normal_array((5, 4))
    labels = [rng.randint(4) for _ in range(5)]
    _, dlogits = nk.cross_entropy_logits(logits, labels)

    def f(vec):
        loss, _ = nk.cross_entropy_logits(vec.reshape(5, 4), labels)
        return loss

    fd = nk.finite_diff_grad(f, logits.ravel().copy(), 1e-6)
    rel = np.abs(dlogits.ravel() - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() <= 1e-6


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        nk.cross_entropy_logits(np.zeros((2, 3)), [0, 3])


# ---------------------------------------------------------------------------
# GELU
# ---------------------------------------------------------------------------

EPS = np.finfo(np.float64).eps


def _gelu_points() -> np.ndarray:
    """A grid over [-12, 12] (through 0 and the saturated tails) plus
    seeded uniform draws on it."""
    draws = nk.RngState(21).uniform_array(400) * 24.0 - 12.0
    return np.concatenate([np.linspace(-12.0, 12.0, 481), draws])


def test_gelu_matches_tanh_form_at_50_digits():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    c = mpmath.sqrt(2 / mpmath.pi)
    a = mpmath.mpf("0.044715")
    x = _gelu_points()
    want = np.empty_like(x)
    want_grad = np.empty_like(x)
    for i, v in enumerate(x):
        v = mpmath.mpf(float(v))
        t = mpmath.tanh(c * (v + a * v**3))
        want[i] = float(v / 2 * (1 + t))
        want_grad[i] = float((1 + t) / 2 + v / 2 * (1 - t**2) * c * (1 + 3 * a * v**2))
    scale = EPS * (1.0 + np.abs(x))
    y, t = nk.gelu(x)
    assert np.max(np.abs(y - want) / scale) <= 4.0
    assert np.max(np.abs(nk.gelu_grad(x, t) - want_grad) / scale) <= 4.0


def test_gelu_grad_matches_central_differences():
    x = _gelu_points()
    h = 1e-5
    fd = (nk.gelu(x + h)[0] - nk.gelu(x - h)[0]) / (2.0 * h)
    assert np.max(np.abs(nk.gelu_grad(x, nk.gelu(x)[1]) - fd)) <= 1e-8


# ---------------------------------------------------------------------------
# RngState
# ---------------------------------------------------------------------------


def test_rng_replay_from_recorded_state():
    rng = nk.RngState(99).derive("replay")
    burn = [rng.uniform() for _ in range(10)]
    recorded = nk.RngState(rng.seed, rng.stream, rng.counter)
    tail = [rng.uniform() for _ in range(10)]
    replayed = [recorded.uniform() for _ in range(10)]
    assert tail == replayed
    assert burn != tail


def test_rng_identical_triple_identical_draw():
    a = nk.RngState(5, 17, 123).uniform_array(3)
    b = nk.RngState(5, 17, 123).uniform_array(3)
    assert a.tolist() == b.tolist()


def test_rng_derive_streams_are_distinct_and_stable():
    root = nk.RngState(1)
    d1 = root.derive("data")
    d2 = root.derive("data")
    d3 = root.derive("eval")
    assert d1.stream == d2.stream and d1.stream != d3.stream
    assert root.counter == 0  # derive is pure
    seq1 = [d1.uniform() for _ in range(5)]
    seq3 = [d3.uniform() for _ in range(5)]
    assert seq1 != seq3


def test_rng_vectorized_matches_scalar():
    a = nk.RngState(21)
    b = nk.RngState(21)
    vec = a.uniform_array(32)
    scalars = [b.uniform() for _ in range(32)]
    assert vec.tolist() == scalars
    assert a.counter == b.counter == 32


def test_rng_permutation_is_a_permutation():
    perm = nk.RngState(4).permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


def test_rng_choice_without_replacement():
    rng = nk.RngState(8)
    picked = rng.choice_without_replacement(20, 12)
    assert len(set(picked.tolist())) == 12
    assert all(0 <= v < 20 for v in picked)


# ---------------------------------------------------------------------------
# Bernoulli sampling
# ---------------------------------------------------------------------------


def test_bernoulli_degenerate_probabilities(rng):
    assert not nk.bernoulli_array(0.0, 200, rng).any()
    assert nk.bernoulli_array(1.0, 200, rng).all()


def test_bernoulli_counter_advances_by_one(rng):
    # one draw per unit
    before = rng.counter
    nk.bernoulli_array(0.5, (3, 4), rng)
    assert rng.counter == before + 12


def test_bernoulli_mean_within_three_sigma():
    rng = nk.RngState(42).derive("bern")
    n, p = 100_000, 0.3
    draws = nk.bernoulli_array(p, n, rng)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(draws.mean() - p) <= 3 * sigma


def test_bernoulli_rejects_bad_probability(rng):
    with pytest.raises(ValueError):
        nk.bernoulli_array(1.5, 4, rng)
    with pytest.raises(ValueError):
        nk.bernoulli_array(-0.1, 4, rng)


# ---------------------------------------------------------------------------
# Gumbel binary sampling
# ---------------------------------------------------------------------------


# A decision's log probability is the mean per-unit log probability of its
# layers' sampled bits (conftest's per-layer form of models.decision_logprob),
# so the 20 and 50 units below are spread over square layers.


def test_gumbel_symmetric_logprob(rng):
    scores = [np.zeros((2, 2))] * 5
    masks = [nk.gumbel_binary_sample_array(s, rng) for s in scores]
    assert abs(normalized_logprob_reference(scores, masks, 1.0) - math.log(0.5)) <= 1e-12


def test_gumbel_saturated_logit(rng):
    scores = [np.full((5, 5), 20.0)] * 2
    masks = [nk.gumbel_binary_sample_array(s, rng) for s in scores]
    assert all(np.all(bits == 1) for bits in masks)
    assert abs(normalized_logprob_reference(scores, masks, 1.0)) <= 1e-8


def test_gumbel_empirical_rate_within_ci():
    rng = nk.RngState(17).derive("gumbel")
    n = 200_000
    bits = nk.gumbel_binary_sample_array(np.full(n, 1.0), rng)
    p = 1 / (1 + math.exp(-1.0))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(bits.mean() - p) <= 3 * sigma


def test_gumbel_branch_logprobs_sum_to_one():
    for logit in (-3.0, -0.5, 0.0, 1.0, 4.0):
        score = [np.array([[logit]])]
        lp_one = normalized_logprob_reference(score, [np.ones((1, 1))], 1.0)
        lp_zero = normalized_logprob_reference(score, [np.zeros((1, 1))], 1.0)
        assert abs(math.exp(lp_one) + math.exp(lp_zero) - 1.0) <= 1e-12


def test_gumbel_scalar_and_array_agree():
    logits = nk.RngState(9).normal_array((5, 5))
    a, b = nk.RngState(33), nk.RngState(33)
    bits_vec = nk.gumbel_binary_sample_array(logits, a)
    for i in range(5):
        for j in range(5):
            bit, lp = gumbel_binary_sample(logits[i, j], b)
            assert bit == bits_vec[i, j]
            unit = np.s_[i:i + 1, j:j + 1]
            assert lp == normalized_logprob_reference([logits[unit]], [bits_vec[unit]], 1.0)
    assert a.counter == b.counter


def test_gumbel_rejects_nonfinite(rng):
    with pytest.raises(ValueError):
        nk.gumbel_binary_sample_array(np.array([0.0, float("inf")]), rng)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_finite_diff_quadratic():
    grad = nk.finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), 1e-5)
    assert abs(grad[0] - 6.0) <= 1e-6


def test_finite_diff_constant_function():
    grad = nk.finite_diff_grad(lambda t: 4.2, np.zeros(7), 1e-5)
    assert np.array_equal(grad, np.zeros(7))


def test_finite_diff_rejects_nonfinite():
    with pytest.raises(nk.OracleError):
        nk.finite_diff_grad(lambda t: float("nan"), np.zeros(2), 1e-5)
