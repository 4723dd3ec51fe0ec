"""Trajectory gate for float-order changes: a tiny config trained on the
current path and again with conftest's full-row attention references
patched into the models. The pruned last block reorders float sums, so the
per-step losses may drift by rounding, but no window outcome or sync source
may change."""

import pytest

from attendout.config import parse_config_text
from conftest import compare_trajectories, run_trajectory

TINY = """
[run]
method = {method}
seed = 3
epochs = 2

[data]
task = majority_token
n = 60
seq_len = 8
vocab = 6

[model]
layers = 2
d_model = 8
d_ff = 16
heads = 2

[optimizer]
algo = adam
lr = 0.01
batch_size = 6

[{method}]
"""

SECTIONS = {
    "vanilla": "p = 0.2\nmode = scores\n",
    "attendout": "dropout_step = 2\ngnet_lr = 0.5\n",
}


@pytest.mark.parametrize("method", sorted(SECTIONS))
def test_pruned_path_keeps_the_full_row_trajectory(method):
    cfg = parse_config_text(TINY.format(method=method) + SECTIONS[method])
    report = compare_trajectories(run_trajectory(cfg, full_rows=False),
                                  run_trajectory(cfg, full_rows=True))
    assert report["steps"] == 16
    assert report["loss_D_rel"] <= 1e-9
    assert report.get("loss_A_rel", 0.0) <= 1e-9
    assert report["first_differing_window"] is None
    assert report["drop_prob_abs"] <= 1e-9
    if method == "attendout":
        assert report["windows"] == 8
