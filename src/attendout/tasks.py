"""Deterministic synthetic sequence-classification tasks.

These stand in for fine-tuning corpora at desk scale: small enough to train
in seconds, structured enough that attention has something to do, and
exactly reproducible from (generator, parameters, seed). Token id 0 is
reserved as the leading classifier position in every task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import ConfigError, RngState

CLS_ID = 0
TOKEN_A = 1
TOKEN_B = 2
OPEN_ID = 1
CLOSE_ID = 2

SPLIT_TRAIN = "train"
SPLIT_DEV = "dev"
SPLIT_TEST = "test"

NUM_CLASSES = 2  # every task here is a binary classification


@dataclass
class Dataset:
    examples: list[tuple[np.ndarray, int]]
    vocab_size: int
    num_classes: int
    split: str = SPLIT_TRAIN

    def __len__(self) -> int:
        return len(self.examples)


def gen_majority_token(n: int, seq_len: int, vocab_size: int, seed: int) -> Dataset:
    """Binary task: does token 1 occur more often than token 2?

    Sequences are a leading classifier token followed by seq_len - 1 ids
    uniform over [1, vocab). Ties are excluded by construction and classes
    alternate, so the split is balanced to within one example.
    """
    if vocab_size < 3:
        raise ConfigError(f"majority task needs vocab >= 3, got {vocab_size}")
    if seq_len < 2:
        raise ConfigError(f"majority task needs seq_len >= 2, got {seq_len}")
    rng = RngState(seed).derive("majority-token")
    body = seq_len - 1
    examples = []
    while len(examples) < n:
        # Each candidate takes the next `body` draws whether or not it is
        # kept, so drawing a block of candidates in one call gives the same
        # examples as one call per candidate. Half the candidates have the
        # wrong class, so a block of twice the examples still missing
        # leaves only the ties short. A tie is labelled -1.
        k = 2 * (n - len(examples)) + 16
        toks = np.empty((k, seq_len), dtype=np.int64)
        toks[:, 0] = CLS_ID
        toks[:, 1:] = np.floor(
            rng.uniform_array(k * body).reshape(k, body) * (vocab_size - 1)
        ).astype(np.int64) + 1
        count_a = np.sum(toks[:, 1:] == TOKEN_A, axis=1)
        count_b = np.sum(toks[:, 1:] == TOKEN_B, axis=1)
        labels = np.where(count_a == count_b, -1, count_a > count_b).tolist()
        for c, label in enumerate(labels):
            if label == len(examples) % 2:
                examples.append((toks[c].copy(), label))  # a view would pin the block
                if len(examples) == n:
                    break
    return Dataset(examples, vocab_size, NUM_CLASSES)


def _is_balanced(brackets: np.ndarray) -> bool:
    depth = 0
    for t in brackets:
        depth += 1 if t == OPEN_ID else -1
        if depth < 0:
            return False
    return depth == 0


def gen_balanced_brackets(n: int, bracket_len: int, seed: int) -> Dataset:
    """Binary task: is a bracket string well nested?

    Positives are uniform shuffles of an equal multiset accepted when
    well nested; negatives are near misses, made by swapping one opening
    bracket ahead of a closing one until the nesting breaks. Sequences are
    bracket_len brackets behind the leading classifier token; classes
    alternate 50/50.
    """
    if bracket_len < 2 or bracket_len % 2 != 0:
        raise ConfigError(f"bracket length must be even and >= 2, got {bracket_len}")
    rng = RngState(seed).derive("balanced-brackets")
    half = bracket_len // 2
    base = np.array([OPEN_ID] * half + [CLOSE_ID] * half, dtype=np.int64)
    examples = []
    for i in range(n):
        while True:
            brackets = base[rng.permutation(bracket_len)]
            if _is_balanced(brackets):
                break
        if i % 2 == 0:
            label = 1
        else:
            label = 0
            while True:
                opens = np.flatnonzero(brackets == OPEN_ID)
                closes = np.flatnonzero(brackets == CLOSE_ID)
                oi = int(opens[rng.randint(opens.size)])
                ci = int(closes[rng.randint(closes.size)])
                if oi > ci:
                    continue
                corrupted = brackets.copy()
                corrupted[oi], corrupted[ci] = CLOSE_ID, OPEN_ID
                if not _is_balanced(corrupted):
                    brackets = corrupted
                    break
        toks = np.concatenate(([CLS_ID], brackets))
        examples.append((toks, label))
    return Dataset(examples, 3, NUM_CLASSES)


def split_sizes(n: int, fractions) -> list[int]:
    """Train/dev/test sizes of n examples by the largest-remainder rule, so
    they sum exactly to n; a nonzero fraction that would round to an empty
    split is a configuration error."""
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3:
        raise ConfigError(f"need exactly 3 fractions, got {len(fractions)}")
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be nonnegative and sum to 1: {fractions}")
    raw = [f * n for f in fractions]
    sizes = [int(np.floor(r)) for r in raw]
    remainders = [(r - s, -i) for i, (r, s) in enumerate(zip(raw, sizes))]
    for _ in range(n - sum(sizes)):
        j = max(range(3), key=lambda i: remainders[i])
        sizes[j] += 1
        remainders[j] = (-1.0, remainders[j][1])
    for frac, size, tag in zip(fractions, sizes, (SPLIT_TRAIN, SPLIT_DEV, SPLIT_TEST)):
        if frac > 0 and size == 0:
            raise ConfigError(f"{tag} fraction {frac} yields an empty split for n={n}")
    return sizes


def split(dataset: Dataset, fractions, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic shuffled partition into train/dev/test by split_sizes."""
    n = len(dataset)
    sizes = split_sizes(n, fractions)
    order = RngState(seed).derive("split").permutation(n)
    out = []
    offset = 0
    for size, tag in zip(sizes, (SPLIT_TRAIN, SPLIT_DEV, SPLIT_TEST)):
        idx = order[offset:offset + size]
        out.append(Dataset([dataset.examples[i] for i in idx],
                           dataset.vocab_size, dataset.num_classes, tag))
        offset += size
    return tuple(out)
