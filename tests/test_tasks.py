import numpy as np
import pytest

from attendout.numkernel import ConfigError
from attendout.tasks import (
    CLS_ID,
    CLOSE_ID,
    OPEN_ID,
    TOKEN_A,
    TOKEN_B,
    gen_balanced_brackets,
    gen_majority_token,
    split,
)
from conftest import gen_majority_token_reference


def _stack_check(brackets) -> bool:
    """Independent well-nestedness oracle for the test's own use."""
    depth = 0
    for tok in brackets:
        if tok == OPEN_ID:
            depth += 1
        elif tok == CLOSE_ID:
            depth -= 1
        else:
            raise AssertionError(f"unexpected token {tok}")
        if depth < 0:
            return False
    return depth == 0


# ---------------------------------------------------------------------------
# majority task
# ---------------------------------------------------------------------------


def test_majority_label_definition():
    ds = gen_majority_token(300, 12, 8, seed=1)
    for tokens, label in ds.examples:
        assert tokens[0] == CLS_ID
        count_a = int(np.sum(tokens[1:] == TOKEN_A))
        count_b = int(np.sum(tokens[1:] == TOKEN_B))
        assert count_a != count_b  # ties excluded
        assert label == (1 if count_a > count_b else 0)
        assert tokens.size == 12
        assert np.all(tokens[1:] >= 1) and np.all(tokens < 8)


def test_majority_deterministic():
    a = gen_majority_token(50, 10, 6, seed=9)
    b = gen_majority_token(50, 10, 6, seed=9)
    assert all(np.array_equal(x[0], y[0]) and x[1] == y[1]
               for x, y in zip(a.examples, b.examples))
    c = gen_majority_token(50, 10, 6, seed=10)
    assert any(not np.array_equal(x[0], y[0]) for x, y in zip(a.examples, c.examples))


def test_majority_balance():
    for n in (100, 101):
        ds = gen_majority_token(n, 10, 6, seed=2)
        ones = sum(label for _, label in ds.examples)
        assert abs(ones - (n - ones)) <= 1


@pytest.mark.parametrize("n,seq_len,vocab,seed", [
    (1000, 16, 12, 1), (1800, 64, 12, 1), (1000, 16, 12, 7),
    (300, 2, 3, 4), (301, 3, 3, 5), (257, 5, 3, 6), (200, 9, 4, 2),
    (1, 2, 5, 0), (0, 4, 3, 1),
])
def test_majority_blocks_match_per_candidate_draws(n, seq_len, vocab, seed):
    got = gen_majority_token(n, seq_len, vocab, seed).examples
    want = gen_majority_token_reference(n, seq_len, vocab, seed)
    assert len(got) == len(want) == n
    for (tokens, label), (ref_tokens, ref_label) in zip(got, want):
        assert tokens.dtype == ref_tokens.dtype and np.array_equal(tokens, ref_tokens)
        assert type(label) is int and label == ref_label


def test_majority_validates_parameters():
    with pytest.raises(ConfigError):
        gen_majority_token(10, 12, 2, seed=0)
    with pytest.raises(ConfigError):
        gen_majority_token(10, 1, 8, seed=0)


# ---------------------------------------------------------------------------
# brackets task
# ---------------------------------------------------------------------------


def test_brackets_known_strings():
    # "(()())" is well nested, "())(" is not
    assert _stack_check([OPEN_ID, OPEN_ID, CLOSE_ID, OPEN_ID, CLOSE_ID, CLOSE_ID])
    assert not _stack_check([OPEN_ID, CLOSE_ID, CLOSE_ID, OPEN_ID])


def test_brackets_labels_match_stack_oracle():
    ds = gen_balanced_brackets(300, 10, seed=3)
    for tokens, label in ds.examples:
        assert tokens[0] == CLS_ID
        assert tokens.size == 11
        assert label == int(_stack_check(tokens[1:]))


def test_brackets_balanced_classes():
    ds = gen_balanced_brackets(200, 8, seed=4)
    ones = sum(label for _, label in ds.examples)
    assert ones == 100


def test_brackets_counts_stay_equal():
    # negatives are near misses: the bracket multiset never changes
    ds = gen_balanced_brackets(100, 8, seed=5)
    for tokens, _ in ds.examples:
        assert int(np.sum(tokens == OPEN_ID)) == 4
        assert int(np.sum(tokens == CLOSE_ID)) == 4


def test_brackets_validates_length():
    with pytest.raises(ConfigError):
        gen_balanced_brackets(10, 7, seed=0)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_all_train():
    ds = gen_majority_token(40, 10, 6, seed=6)
    train, dev, test = split(ds, (1.0, 0.0, 0.0), seed=1)
    assert len(train) == 40 and len(dev) == 0 and len(test) == 0


def test_split_deterministic():
    ds = gen_majority_token(60, 10, 6, seed=7)
    a = split(ds, (0.8, 0.1, 0.1), seed=5)
    b = split(ds, (0.8, 0.1, 0.1), seed=5)
    for part_a, part_b in zip(a, b):
        assert all(np.array_equal(x[0], y[0]) for x, y in zip(part_a.examples, part_b.examples))


def test_split_union_is_original_multiset():
    ds = gen_majority_token(57, 10, 6, seed=8)
    parts = split(ds, (0.6, 0.2, 0.2), seed=2)
    assert sum(len(p) for p in parts) == 57
    original = sorted(tuple(t.tolist()) + (label,) for t, label in ds.examples)
    recombined = sorted(
        tuple(t.tolist()) + (label,)
        for part in parts for t, label in part.examples
    )
    assert original == recombined


def test_split_rejects_empty_nonzero_fraction():
    ds = gen_majority_token(4, 10, 6, seed=9)
    with pytest.raises(ConfigError):
        split(ds, (0.9, 0.05, 0.05), seed=0)


def test_split_tags():
    ds = gen_majority_token(30, 10, 6, seed=10)
    train, dev, test = split(ds, (0.5, 0.25, 0.25), seed=0)
    assert (train.split, dev.split, test.split) == ("train", "dev", "test")


# ---------------------------------------------------------------------------
# learnability floor
# ---------------------------------------------------------------------------


def test_majority_task_is_learnable_within_five_epochs():
    # the floor that makes regularizer comparisons meaningful: a 2-layer
    # d=32 model must clear 90% dev accuracy on n=2000, seq_len=16
    from attendout.config import parse_config_text
    from attendout.trainer import train

    cfg = parse_config_text("""
[run]
method = none
seed = 13
epochs = 5

[data]
task = majority_token
n = 2000
seq_len = 16
vocab = 12
train_fraction = 0.8
dev_fraction = 0.1
test_fraction = 0.1

[model]
layers = 2
d_model = 32
d_ff = 64
heads = 2

[optimizer]
algo = adam
lr = 0.001
batch_size = 16
""")
    result = train(cfg)
    assert result.dev_accuracy >= 0.90
