"""Property tests of the mask escalation rule and the masked softmax.

derandomize=True fixes hypothesis's example stream, so every run of the
suite checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attendout.attention import MaskMatrix, MaskMode
from attendout.numkernel import NEG_INF, softmax_rows

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
        assert mask.entries is None
    else:
        assert mask.mode is MaskMode.SCORES
        assert np.array_equal(mask.entries == NEG_INF, bits != 0)
        assert np.all(mask.entries[bits == 0] == 0.0)


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
    weights = softmax_rows(scores + mask.entries)
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(weights[bits != 0] == 0.0)
