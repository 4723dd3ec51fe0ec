"""The random stream held to oracles that do not run the code under test.

Three kinds of check: SplitMix64's published first output, the one-word
scalar reference in conftest (bit for bit and counter for counter), and
sha256 digests of the data path pinned from an earlier version of the
stream, so any change to a draw, a shuffle or a bounded integer fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from attendout import numkernel as nk
from attendout import tasks
from attendout.trainer import BatchStream
from conftest import (
    scalar_choice_without_replacement,
    scalar_next_u64,
    scalar_permutation,
    scalar_randint,
    scalar_uniform,
)

SRC = Path(__file__).resolve().parents[1] / "src"
SEEDS = (0, 1, 7)


def test_splitmix64_published_first_output():
    # the first output of SplitMix64 seeded with 0 (Steele, Lea & Flood 2014)
    assert nk._splitmix64(0) == 0xE220A8397B1DCDAF


# ---------------------------------------------------------------------------
# The vectorized stream against the scalar reference
# ---------------------------------------------------------------------------


def _pair(seed, stream=0, counter=0):
    return nk.RngState(seed, stream, counter), nk.RngState(seed, stream, counter)


def test_uniform_matches_scalar_reference():
    for seed in range(20):
        a, b = _pair(seed, 5, seed * 1000)
        assert [a.uniform() for _ in range(10)] == [scalar_uniform(b) for _ in range(10)]
        assert a.counter == b.counter


def test_permutation_and_choice_match_scalar_reference():
    for seed in range(40):
        for n in (0, 1, 2, 3, 17, 100):
            a, b = _pair(seed, 3)
            assert a.permutation(n).tolist() == scalar_permutation(b, n).tolist()
            assert a.counter == b.counter
            for k in sorted({0, min(1, n), n // 2, n}):
                a, b = _pair(seed, 4)
                got, want = a.choice_without_replacement(n, k), scalar_choice_without_replacement(b, n, k)
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
                assert a.counter == b.counter


def test_randint_matches_scalar_reference_under_forced_rejection():
    # bounds just above 2**63 reject about half of all words (3 * 2**62 + 5
    # a quarter), so the kernel must resume after rejections at many
    # positions; 2**64 - 1 rejects only the all-ones word
    for bound in (2**63 + 1, 2**63 + 3, 3 * 2**62 + 5, 2**64 - 1):
        a, b = _pair(11, 9)
        got = [a.randint(bound) for _ in range(50)]
        assert got == [scalar_randint(b, bound) for _ in range(50)]
        assert a.counter == b.counter
        assert a.counter > 50 or bound == 2**64 - 1
    a, b = _pair(11, 9)
    assert a.randint(2**63 + 1) == scalar_randint(b, 2**63 + 1)
    assert a.counter == b.counter


def test_randint_rejection_threshold_is_exact():
    # for a word w >= 2**63, bound w + 1 accepts at most w: the largest
    # accepted word is w itself, while bound w must reject it
    seed = next(s for s in range(100) if scalar_next_u64(nk.RngState(s)) >= 2**63)
    w = scalar_next_u64(nk.RngState(seed))
    a = nk.RngState(seed)
    assert a.randint(w + 1) == w and a.counter == 1
    a, b = _pair(seed)
    assert a.randint(w) == scalar_randint(b, w)
    assert a.counter == b.counter > 1


def test_integers_over_mixed_bounds_match_one_randint_per_bound():
    bounds = [2**63 + 1, 5, 2**64 - 1, 1, 2**63 + 7, 2, 2**63 + 1] * 6
    for seed in range(30):
        a, b = _pair(seed, 2)
        got = a.integers(np.array(bounds, dtype=np.uint64))
        assert got.tolist() == [scalar_randint(b, bound) for bound in bounds]
        assert a.counter == b.counter


@pytest.mark.parametrize("bad", [0, -1, 2**64, 2**65])
def test_randint_refuses_bounds_outside_the_word_range(bad):
    rng = nk.RngState(0, 1, 7)
    with pytest.raises(ValueError):
        rng.randint(bad)
    with pytest.raises(ValueError):
        rng.integers([3, bad])
    assert rng.counter == 7


def test_huge_randint_bound_fails_instead_of_hanging():
    # a bound the rejection loop can never accept once made this call spin
    # forever; run it in a child so a regression fails instead of hanging
    code = ("from attendout.numkernel import RngState\n"
            "try:\n    RngState(0).randint(2**65)\nexcept ValueError:\n    print('refused')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"


# ---------------------------------------------------------------------------
# Pinned digests of the data path
# ---------------------------------------------------------------------------


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        a = np.asarray(part)
        h.update(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def _rows(n):
    return tasks.Dataset(np.arange(n, dtype=np.int64)[:, None], np.zeros(n, dtype=np.int64), 2)


def _majority():
    for seed in SEEDS:
        d = tasks.gen_majority_token(200, 12, 6, seed)
        yield from (d.tokens, d.labels)


def _brackets():
    for seed in SEEDS:
        d = tasks.gen_balanced_brackets(60, 10, seed)
        yield from (d.tokens, d.labels)


def _split_orders():
    for seed in SEEDS:
        for n in (10, 300, 1800):
            yield from (part.tokens for part in tasks.split(_rows(n), (0.6, 0.2, 0.2), seed))


def _epoch_orders():
    for seed in SEEDS:
        stream = BatchStream(_rows(50), 7, 3, nk.RngState(seed).derive("data"))
        while (item := stream.next()) is not None:
            yield item[2].tokens


def _window_draws():
    for seed in SEEDS:
        eval_rng = nk.RngState(seed).derive("eval")
        for w in range(5):
            yield eval_rng.derive(w).choice_without_replacement(300, 16)


def _sync_uniforms():
    for seed in SEEDS:
        rng = nk.RngState(seed).derive("sync")
        yield np.array([rng.uniform() for _ in range(20)] + [rng.counter])


def _randints():
    for seed in SEEDS:
        rng = nk.RngState(seed).derive("randint")
        yield np.array([rng.randint(b) for b in (1, 2, 3, 10, 2**32 + 1, 2**63 + 1, 2**64 - 1)]
                       + [rng.counter], dtype=np.uint64)


PINNED = {
    "majority": (_majority, "4b2f621f0f105d6dddcec548dffbc3bf568826338bb64d9cadd83cbcdd524b38"),
    "brackets": (_brackets, "7aa9bf2928cd33715f2177956c3ccb53196c129f4faad0cf06d57aae1f505bf8"),
    "split": (_split_orders, "c24553d399879e6959541b4579f1a0ccf5214fb8068e8f9f535b6eebef22a30a"),
    "epochs": (_epoch_orders, "89ce19e8c51e53571447d0505a6224e57be6869e80debbdf8470b53f97030b64"),
    "window": (_window_draws, "531ebae6a383bbf74b201d7d408c4cb0389c985f4f1381f5d64941256d942b0f"),
    "sync": (_sync_uniforms, "445a2ce8b0ab85a64d9dae526384a38f2b420dd42089ddef01fe592ba1df0453"),
    "randint": (_randints, "e04e1f896dfea28c844961b12d1c89fd644f1c7ad7ba10c11a04c6119012c364"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_data_path_digest_is_pinned(name):
    parts, digest = PINNED[name]
    assert _sha(parts()) == digest
