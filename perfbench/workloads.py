"""The benchmark's workloads: the INI a training job runs, as a pure function
of (workload, seed), and the counts a correct run of that INI must produce.

All three use Adam with batch 8 and the majority_token task with a
50/30/20 split; they differ in method, shape and job size:

- plain: method none at the shipped shape. Per-sequence Python overhead and
  ptree walking dominate; generator, policygrad and sync are never called.
- game: method attendout at the shipped shape, T=16 as in
  configs/attendout.ini. The only workload with mask sampling, REINFORCE,
  per-window evaluation and model re-sync.
- wide: method vanilla p=0.1 (scores mode) at 4x L and d_model. The same
  attention and encoder code, limited by arithmetic instead of call
  overhead; the only workload drawing bernoulli_array masks.

Job sizes (n, epochs) and learning rates are chosen so that dev accuracy
has settled for most seeds, which keeps its spread across seeds small. On
wide, lr 0.001 left some seeds at chance and 200 training examples seen six
times generalised unevenly; lr 0.0007 on 900 examples seen twice (226 steps)
settles far more seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

BATCH_SIZE = 8
TRAIN_FRACTION, DEV_FRACTION, TEST_FRACTION = 0.5, 0.3, 0.2


@dataclass(frozen=True)
class Workload:
    method: str
    seq_len: int
    d_model: int
    d_ff: int
    heads: int
    n: int
    epochs: int
    lr: float = 0.001
    method_section: str = ""
    dropout_step: int | None = None

    @property
    def train_examples(self) -> int:
        # n is a multiple of 10, so every split size is exact.
        return self.n * 5 // 10

    @property
    def total_steps(self) -> int:
        return self.epochs * -(-self.train_examples // BATCH_SIZE)


WORKLOADS = {
    "plain": Workload("none", seq_len=16, d_model=32, d_ff=64, heads=2,
                      n=1000, epochs=2),
    "game": Workload("attendout", seq_len=16, d_model=32, d_ff=64, heads=2,
                     n=1000, epochs=1,
                     method_section="[attendout]\ndropout_step = 16\ngnet_lr = 1.5\n",
                     dropout_step=16),
    "wide": Workload("vanilla", seq_len=64, d_model=128, d_ff=256, heads=4,
                     n=1800, epochs=2, lr=0.0007,
                     method_section="[vanilla]\np = 0.1\nmode = scores\n"),
}


def config_text(name: str, seed: int) -> str:
    """The INI for one job of workload `name`; depends on nothing else."""
    w = WORKLOADS[name]
    text = (
        "[run]\n"
        f"method = {w.method}\n"
        f"seed = {int(seed)}\n"
        f"epochs = {w.epochs}\n"
        "\n[data]\n"
        "task = majority_token\n"
        f"n = {w.n}\n"
        f"seq_len = {w.seq_len}\n"
        "vocab = 12\n"
        f"train_fraction = {TRAIN_FRACTION}\n"
        f"dev_fraction = {DEV_FRACTION}\n"
        f"test_fraction = {TEST_FRACTION}\n"
        "\n[model]\n"
        "layers = 2\n"
        f"d_model = {w.d_model}\n"
        f"d_ff = {w.d_ff}\n"
        f"heads = {w.heads}\n"
        "\n[optimizer]\n"
        "algo = adam\n"
        f"lr = {w.lr}\n"
        f"batch_size = {BATCH_SIZE}\n"
    )
    if w.method_section:
        text += "\n" + w.method_section
    return text
