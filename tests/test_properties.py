"""Property tests of the mask escalation rule, the masked softmax, the
attention layer's use of drop bits, the GELU kernels, the dropout
schedules and the config fairness hash.

derandomize=True fixes hypothesis's example stream, so every run of the
suite checks the same examples.
"""

import configparser

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attendout import ptree
from attendout.attention import MaskMatrix, MaskMode, attn_backward, attn_forward
from attendout.config import _SCHEMA, _SHARED_SECTIONS, compute_fairness_hash
from attendout.numkernel import NEG_INF, RngState, gelu, gelu_grad, softmax_rows
from attendout.regularizers import Schedule, schedule_probability
from conftest import (
    attn_backward_reference,
    attn_forward_reference,
    gelu_grad_recomputed_reference,
    gelu_grad_reference,
    gelu_reference,
    rand_attention,
    softmax_rows_reference,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None)


@st.composite
def drop_bits(draw, max_len=8):
    """Square 0/1 drop bits; some draws carry a row of all ones."""
    n = draw(st.integers(1, max_len))
    bits = draw(hnp.arrays(np.uint8, (n, n), elements=st.integers(0, 1)))
    if draw(st.booleans()):
        bits[draw(st.integers(0, n - 1))] = 1
    return bits


@PROPERTY_SETTINGS
@given(drop_bits())
def test_from_drop_bits_escalates_exactly_on_a_full_row(bits):
    mask = MaskMatrix.from_drop_bits(bits)
    if np.any(np.all(bits != 0, axis=1)):
        assert mask.mode is MaskMode.ALL_DROPPED
        assert mask.drop is None
    else:
        assert mask.mode is MaskMode.SCORES
        assert mask.drop.dtype == np.bool_
        assert np.array_equal(mask.drop, bits != 0)


@PROPERTY_SETTINGS
@given(drop_bits(), st.data())
def test_scores_masked_softmax_rows_sum_to_one(bits, data):
    n = bits.shape[0]
    # keep one drawn unit per row, so the mask stays in SCORES mode
    kept = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, n - 1)))
    bits[np.arange(n), kept] = 0
    scores = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-30.0, 30.0)))
    mask = MaskMatrix.from_drop_bits(bits)
    assert mask.mode is MaskMode.SCORES
    weights = softmax_rows(np.where(mask.drop, NEG_INF, scores))
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(weights[bits != 0] == 0.0)


@PROPERTY_SETTINGS
@given(drop_bits(), st.data())
def test_softmax_rows_matches_the_zeroing_reference_bitwise(bits, data):
    n = bits.shape[0]
    kept = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, n - 1)))
    bits[np.arange(n), kept] = 0
    scores = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1e3, 1e3)))
    masked = np.where(MaskMatrix.from_drop_bits(bits).drop, NEG_INF, scores)
    shape = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    logits = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    for m in (masked, scores, logits):
        assert np.array_equal(softmax_rows(m), softmax_rows_reference(m))


@PROPERTY_SETTINGS
@given(drop_bits(), st.sampled_from(["scores", "weights", "weights_rescale"]),
       st.sampled_from([1, 2]), st.booleans(), st.integers(0, 2**32 - 1))
def test_attention_applies_drop_bits_as_float_entries_bitwise(bits, kind, heads,
                                                              one_query, seed):
    # scores drop bits with a full row escalate, so ALL_DROPPED is drawn too
    mask = MaskMatrix.from_drop_bits(bits) if kind == "scores" else \
        MaskMatrix.weights_from_drop_bits(bits, 1 / 0.7 if kind == "weights_rescale" else None)
    length = bits.shape[0]
    q = 1 if one_query else length
    params = rand_attention(seed % 97, heads=heads)
    rng = RngState(seed).derive("x")
    x, dy = rng.normal_array((length, 8)), rng.normal_array((q, 8))

    y, cache = attn_forward(x, params, mask, queries=q)
    y_ref, cache_ref = attn_forward_reference(x, params, mask, queries=q)
    grads, grads_ref = ptree.zeros_like(params), ptree.zeros_like(params)
    dx = attn_backward(cache, dy, grads)
    dx_ref = attn_backward_reference(cache_ref, dy, grads_ref)
    assert y.tobytes() == y_ref.tobytes()
    assert dx.tobytes() == dx_ref.tobytes()
    for (name, g), (_, g_ref) in zip(ptree.iter_arrays(grads), ptree.iter_arrays(grads_ref)):
        assert g.tobytes() == g_ref.tobytes(), name


# ---------------------------------------------------------------------------
# GELU
# ---------------------------------------------------------------------------


@st.composite
def gelu_inputs(draw):
    """A feed-forward-shaped array, seeded uniform on [-12, 12], with up to
    32 entries overwritten by drawn values (0, the ends, tiny values)."""
    shape = draw(st.sampled_from([(16, 64), (64, 256)]))
    size = shape[0] * shape[1]
    x = RngState(draw(st.integers(0, 2**32))).uniform_array(size) * 24.0 - 12.0
    for i, v in draw(st.lists(st.tuples(st.integers(0, size - 1), st.floats(-12.0, 12.0)),
                              max_size=32)):
        x[i] = v
    return x.reshape(shape)


@PROPERTY_SETTINGS
@given(gelu_inputs())
def test_gelu_kernels_match_the_power_reference(x):
    # A cube one ulp off can move tanh(u) by one ulp. Near |t| = 1 the
    # cancelling 1 - t*t turns that into up to ~1.1 eps*(1 + |x|) in
    # gelu_grad (at |x| ~ 3.8), hence its wider bound.
    scale = np.finfo(np.float64).eps * (1.0 + np.abs(x))
    y, t = gelu(x)
    assert np.all(np.abs(y - gelu_reference(x)) <= scale)
    assert np.all(np.abs(gelu_grad(x, t) - gelu_grad_reference(x)) <= 2.0 * scale)


@PROPERTY_SETTINGS
@given(gelu_inputs())
def test_gelu_grad_from_the_forward_tanh_equals_recomputing_it(x):
    y, t = gelu(x)
    assert np.array_equal(t, np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))
    assert np.array_equal(gelu_grad(x, t), gelu_grad_recomputed_reference(x))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@st.composite
def breakpoints(draw):
    """One layer's breakpoints: strictly increasing steps, probabilities in
    [0, 1]."""
    steps = sorted(draw(st.sets(st.integers(0, 10_000), min_size=1, max_size=6)))
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=len(steps), max_size=len(steps)))
    return list(zip(steps, probs))


@PROPERTY_SETTINGS
@given(breakpoints(), st.integers(1, 10_000))
def test_schedule_hits_breakpoints_and_holds_the_ends(points, beyond):
    schedule = Schedule.from_breakpoints([points])
    for step, prob in points:
        assert schedule_probability(schedule, 0, step) == prob
    first_step, first_prob = points[0]
    last_step, last_prob = points[-1]
    if first_step - beyond >= 0:
        assert schedule_probability(schedule, 0, first_step - beyond) == first_prob
    assert schedule_probability(schedule, 0, last_step + beyond) == last_prob


@PROPERTY_SETTINGS
@given(breakpoints(), st.data())
def test_schedule_interpolates_between_neighbours(points, data):
    schedule = Schedule.from_breakpoints([points])
    for (s0, q0), (s1, q1) in zip(points, points[1:]):
        if s1 - s0 < 2:
            continue
        step = data.draw(st.integers(s0 + 1, s1 - 1))
        prob = schedule_probability(schedule, 0, step)
        assert min(q0, q1) - 1e-12 <= prob <= max(q0, q1) + 1e-12


@PROPERTY_SETTINGS
@given(st.floats(-1e6, 1e6), st.floats(-1e3, 1e3), st.integers(0, 10**6))
def test_linear_schedule_stays_in_unit_interval(p0, slope, step):
    schedule = Schedule.linear(p0, slope, 1)
    assert 0.0 <= schedule_probability(schedule, 0, step) <= 1.0


# ---------------------------------------------------------------------------
# fairness hash
# ---------------------------------------------------------------------------

SHARED_KEYS = [(section, key) for section in _SHARED_SECTIONS for key in _SCHEMA[section]]
EXCLUDED_KEYS = [("run", "method"), ("run", "seed")]
HASHED_KEYS = [pair for pair in SHARED_KEYS if pair not in EXCLUDED_KEYS]
VALUES = st.text("abc0123456789.,-", min_size=1, max_size=6)


def _fairness_hash(values, order, method_items=None):
    """Hash of a parser holding values (keyed by (section, key)) written in
    the given key order, plus an optional method section."""
    sections: dict = {}
    for section, key in order:
        sections.setdefault(section, {})[key] = values[(section, key)]
    if method_items is not None:
        sections[values[("run", "method")]] = method_items
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    return compute_fairness_hash(parser)


@PROPERTY_SETTINGS
@given(st.fixed_dictionaries({pair: VALUES for pair in SHARED_KEYS}),
       st.permutations(SHARED_KEYS), st.sampled_from(["none", "attendout", "vanilla"]),
       st.integers(0, 10**6), st.dictionaries(st.sampled_from(["p", "mode", "tau"]), VALUES))
def test_fairness_hash_ignores_method_seed_section_and_order(values, order, method, seed,
                                                             method_items):
    reference = _fairness_hash(values, SHARED_KEYS)
    variant = dict(values)
    variant[("run", "method")] = method
    variant[("run", "seed")] = str(seed)
    assert _fairness_hash(variant, order, method_items) == reference


@PROPERTY_SETTINGS
@given(st.fixed_dictionaries({pair: VALUES for pair in SHARED_KEYS}),
       st.sampled_from(HASHED_KEYS), VALUES)
def test_fairness_hash_changes_with_any_shared_value(values, pair, new_value):
    changed = dict(values)
    changed[pair] = new_value if new_value != values[pair] else new_value + "0"
    assert _fairness_hash(changed, SHARED_KEYS) != _fairness_hash(values, SHARED_KEYS)
