import math

import numpy as np
import pytest

from attendout import numkernel as nk
from attendout.attention import MaskMatrix, MaskMode
from attendout.models import ModelConfig, init_task_model, task_forward
from attendout.numkernel import ConfigError, RngState
from attendout.regularizers import (
    Schedule,
    layerdrop_decision,
    load_schedule_file,
    schedule_probability,
    vanilla_attention_mask,
)
from conftest import sample_bernoulli


# ---------------------------------------------------------------------------
# vanilla attention dropout
# ---------------------------------------------------------------------------


def test_vanilla_p_zero_keeps_everything(rng):
    mask = vanilla_attention_mask(6, 0.0, rng)
    assert mask.mode is MaskMode.SCORES
    assert np.all(mask.entries == 0.0)


def test_vanilla_p_one_escalates(rng):
    mask = vanilla_attention_mask(6, 1.0, rng)
    assert mask.mode is MaskMode.ALL_DROPPED


def test_vanilla_drop_rate_within_ci():
    rng = RngState(5).derive("vanilla")
    length, p, trials = 16, 0.2, 1000
    dropped = 0
    for _ in range(trials):
        mask = vanilla_attention_mask(length, p, rng)
        assert mask.mode in (MaskMode.SCORES, MaskMode.ALL_DROPPED)
        if mask.mode is MaskMode.SCORES:
            dropped += int((mask.entries == nk.NEG_INF).sum())
        else:
            dropped += length * length
    total = trials * length * length
    sigma = math.sqrt(p * (1 - p) / total)
    assert abs(dropped / total - p) <= 3 * sigma


def test_vanilla_full_row_escalates():
    # at p close to 1 a full row is frequent; the mask must never be a
    # SCORES matrix carrying a dead row
    rng = RngState(7).derive("rows")
    for _ in range(300):
        mask = vanilla_attention_mask(3, 0.9, rng)
        if mask.mode is MaskMode.SCORES:
            assert not np.any(np.all(mask.entries == nk.NEG_INF, axis=1))


def test_vanilla_weights_mode(rng):
    mask = vanilla_attention_mask(5, 0.3, rng, mode="weights")
    assert mask.mode is MaskMode.WEIGHTS
    assert np.all((mask.entries == 0) | (mask.entries == 1))


def test_vanilla_rejects_bad_mode(rng):
    with pytest.raises(ConfigError):
        vanilla_attention_mask(5, 0.3, rng, mode="other")


def test_vanilla_rescale_rides_on_weights_masks_only(rng):
    weights = vanilla_attention_mask(5, 0.2, rng, mode="weights", rescale=True)
    assert weights.rescale == 1.0 / (1.0 - 0.2)
    assert vanilla_attention_mask(5, 0.2, rng, mode="weights").rescale is None
    assert vanilla_attention_mask(5, 1.0, rng, mode="weights", rescale=True).rescale is None
    assert vanilla_attention_mask(5, 0.2, rng, rescale=True).rescale is None


# ---------------------------------------------------------------------------
# layerdrop decisions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("decide", [layerdrop_decision])
def test_layer_decisions_match_scalar_bernoulli_draws(decide):
    # the scalar sampler is the reference: same bits, same counter advance
    for seed in range(200):
        for p in (0.0, 0.2, 0.5, 1.0):
            vec_rng, ref_rng = RngState(seed).derive("ld"), RngState(seed).derive("ld")
            bits = decide(5, p, vec_rng)
            expected = [sample_bernoulli(p, ref_rng) for _ in range(5)]
            assert bits.dtype == np.uint8 and bits.tolist() == expected
            assert vec_rng.counter == ref_rng.counter


def test_layerdrop_degenerate_probabilities(rng):
    assert layerdrop_decision(4, 0.0, rng).tolist() == [0, 0, 0, 0]
    assert layerdrop_decision(4, 1.0, rng).tolist() == [1, 1, 1, 1]


def test_layerdrop_rate_within_ci():
    rng = RngState(9).derive("ld")
    n, p, trials = 4, 0.2, 10_000
    hits = np.zeros(n)
    for _ in range(trials):
        hits += layerdrop_decision(n, p, rng)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert np.all(np.abs(hits / trials - p) <= 3 * sigma)


def test_attn_layerdrop_p_one_equals_all_dropped_masks():
    cfg = ModelConfig(vocab_size=9, max_len=8, num_layers=2, d_model=16,
                      d_ff=32, num_heads=2, num_classes=2)
    params = init_task_model(cfg, 3)
    tokens = np.array([0, 5, 2, 8, 1, 7, 4, 3])
    rng = RngState(1)
    bits = layerdrop_decision(2, 1.0, rng)
    via_layerdrop, _ = task_forward(params, tokens, layer_masks=[
        MaskMatrix.all_dropped() if b else None for b in bits])
    via_masks, _ = task_forward(params, tokens, layer_masks=[
        MaskMatrix.from_drop_bits(np.ones((8, 8), dtype=np.uint8))] * 2)
    assert np.array_equal(via_layerdrop, via_masks)


def test_layerdrop_p_one_reduces_to_embedding_plus_head():
    cfg = ModelConfig(vocab_size=9, max_len=6, num_layers=3, d_model=8,
                      d_ff=16, num_heads=1, num_classes=2)
    params = init_task_model(cfg, 4)
    tokens = np.array([0, 5, 2, 8, 1, 7])
    skips = layerdrop_decision(3, 1.0, RngState(2))
    logits, _ = task_forward(params, tokens, skip_blocks=skips)
    embedded = params.token_embedding[tokens] + params.position_embedding[:6]
    expected = embedded[0:1] @ params.head_w + params.head_b
    assert np.array_equal(logits, expected)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_schedule_constant():
    sched = Schedule.linear(0.6, 0.0, 4)
    for step in (0, 100, 10_000):
        assert schedule_probability(sched, 2, step) == 0.6


def test_schedule_clamps_to_zero():
    sched = Schedule.linear(0.6, -0.001, 1)
    assert schedule_probability(sched, 0, 1000) == 0.0
    assert schedule_probability(sched, 0, 600) == pytest.approx(0.0, abs=1e-15)
    assert schedule_probability(sched, 0, 599) > 0.0


def test_schedule_breakpoints_flat_segment():
    sched = Schedule.from_breakpoints([[(0, 0.55), (1000, 0.55)]])
    assert schedule_probability(sched, 0, 500) == 0.55


def test_schedule_breakpoints_interpolate_and_hold():
    sched = Schedule.from_breakpoints([[(0, 0.6), (100, 0.2), (200, 0.4)]])
    assert schedule_probability(sched, 0, 0) == 0.6
    assert schedule_probability(sched, 0, 100) == 0.2
    assert schedule_probability(sched, 0, 50) == pytest.approx(0.4)
    assert schedule_probability(sched, 0, 150) == pytest.approx(0.3)
    # beyond the last breakpoint the final value holds
    assert schedule_probability(sched, 0, 10_000) == 0.4


def test_schedule_is_continuous_between_breakpoints():
    sched = Schedule.from_breakpoints([[(0, 0.9), (40, 0.1), (80, 0.5)]])
    values = [schedule_probability(sched, 0, s) for s in range(81)]
    diffs = np.abs(np.diff(values))
    assert diffs.max() <= 0.02 + 1e-12  # max slope is 0.02 per step


def test_schedule_rejects_unsorted_breakpoints():
    with pytest.raises(ConfigError):
        Schedule.from_breakpoints([[(10, 0.5), (5, 0.2)]])


def test_schedule_file_round_trip(tmp_path):
    path = tmp_path / "test.schedule"
    path.write_text(
        "# comment\n"
        "0 0 0.55\n"
        "0 1000 0.55\n"
        "1 0 0.6\n"
        "1 500 0.1\n"
    )
    sched = load_schedule_file(path, 2)
    assert schedule_probability(sched, 0, 123) == 0.55
    assert schedule_probability(sched, 1, 250) == pytest.approx(0.35)


def test_schedule_file_reports_line_number(tmp_path):
    path = tmp_path / "bad.schedule"
    path.write_text("0 0 0.5\nnot a line\n")
    with pytest.raises(ConfigError) as err:
        load_schedule_file(path, 1)
    assert ":2:" in str(err.value)


def test_schedule_file_requires_all_layers(tmp_path):
    path = tmp_path / "partial.schedule"
    path.write_text("0 0 0.5\n")
    with pytest.raises(ConfigError):
        load_schedule_file(path, 2)
