"""Training loops: the defender/attacker/generator game, plain training,
and the random regularizer baselines, all under one deterministic harness.

The adversarial loop follows a fixed cadence. Defender and attacker start
bit-identical. For T optimizer steps (one "dropout step") both consume the
same mini-batches: the defender updates on clean forwards, the attacker
under masks sampled per batch item from the generator, and every sampled
decision is kept for the generator update. At the window boundary both
models are scored on T held-out samples drawn without replacement; the win
sign becomes the reward, the moving-average baseline absorbs it, the
generator takes one policy-gradient step, the kept decisions are released,
and both task models are re-synchronized to a single source sampled with
higher probability for the better scorer.

All randomness flows through named counter-based streams, so two runs with
the same config and seed produce byte-identical metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ptree, tasks
from .attention import MaskMatrix
from .config import (
    METHOD_ATTENDOUT,
    METHOD_ATTN_LAYERDROP,
    METHOD_LAYERDROP,
    METHOD_NONE,
    METHOD_SCHEDULED,
    METHOD_VANILLA,
    TASK_BRACKETS,
    TASK_MAJORITY,
    TrainConfig,
    eval_slice_size,
    model_config,
)
from .models import (
    GeneratorConfig,
    GeneratorParams,
    ModelConfig,
    TaskModelParams,
    gnet_sample_masks,
    init_generator,
    init_task_model,
    task_backward,
    task_forward,
)
from .numkernel import (
    ConfigError,
    ContractViolation,
    DivergenceError,
    RngState,
    cross_entropy_logits,
    sigmoid,
)
from .policygrad import (
    Baseline,
    compute_rewards,
    reinforce_update,
    update_baseline,
)
from .regularizers import (
    layerdrop_decision,
    schedule_probability,
    vanilla_attention_mask,
)

# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Hyperparameters plus whole-model moment vectors made on first use:
    m is the SGD velocity or Adam's first moment, v Adam's second moment."""

    algo: str = "sgd"
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def optimizer_step(params, grads, lr: float, state: OptimizerState):
    """One in-place SGD/momentum/Adam step over the whole parameter buffer;
    returns (params, state)."""
    bad = ptree.first_nonfinite(grads)
    if bad is not None:
        raise DivergenceError(f"non-finite gradient in {bad}")
    state.t += 1
    p, g = params.flat, grads.flat
    if state.algo == "sgd":
        if state.momentum > 0.0:
            if state.m is None:
                state.m = np.zeros_like(p)
            state.m *= state.momentum
            state.m += g
            p -= lr * state.m
        else:
            p -= lr * g
    elif state.algo == "adam":
        if state.m is None:
            state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        m, v = state.m, state.v
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * g * g
        m_hat = m / (1 - state.beta1 ** state.t)
        v_hat = v / (1 - state.beta2 ** state.t)
        # p -= lr * m_hat / (sqrt(v_hat) + eps), in place: two temporaries
        np.sqrt(v_hat, out=v_hat)
        v_hat += state.eps
        m_hat *= lr
        m_hat /= v_hat
        p -= m_hat
    else:
        raise ConfigError(f"unknown optimizer {state.algo!r}")
    return params, state


def _copy_opt_state(state: OptimizerState) -> OptimizerState:
    moments = {k: getattr(state, k).copy() for k in ("m", "v") if getattr(state, k) is not None}
    return replace(state, **moments)


# ---------------------------------------------------------------------------
# Data flow
# ---------------------------------------------------------------------------


class BatchStream:
    """Epoch-shuffled batches, exactly epochs * ceil(n / batch) of them.

    Reshuffles from a per-epoch derived stream, so the order is a pure
    function of (seed, epoch). Returns None when the step budget is spent;
    within the budget, epoch boundaries are crossed transparently.
    """

    def __init__(self, examples, batch_size: int, epochs: int, rng: RngState):
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.examples = examples
        self.batch_size = batch_size
        self.rng = rng
        n = len(examples)
        self.steps_per_epoch = 0 if n == 0 else -(-n // batch_size)
        self.total_steps = epochs * self.steps_per_epoch
        self.step = 0
        self._epoch = -1
        self._order = None

    @property
    def remaining(self) -> int:
        return self.total_steps - self.step

    def next(self):
        if self.step >= self.total_steps:
            return None
        epoch = self.step // self.steps_per_epoch
        if epoch != self._epoch:
            self._epoch = epoch
            self._order = self.rng.derive(epoch).permutation(len(self.examples))
        pos = (self.step % self.steps_per_epoch) * self.batch_size
        idx = self._order[pos:pos + self.batch_size]
        batch = [self.examples[i] for i in idx]
        step = self.step
        self.step += 1
        return step, epoch, batch


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def evaluate(params: TaskModelParams, samples) -> float:
    """Clean-forward accuracy (no masks ever apply at evaluation)."""
    if not samples:
        raise ContractViolation("evaluation needs at least one sample")
    correct = 0
    for tokens, label in samples:
        logits, _ = task_forward(params, tokens)
        if int(np.argmax(logits[0])) == int(label):
            correct += 1
    return correct / len(samples)


def sync_models(defender: TaskModelParams, attacker: TaskModelParams,
                eval_defender: float, eval_attacker: float, rng: RngState):
    """Collapse both task models onto one source, sampled with probability
    softmax(eval scores); returns (defender', attacker', source_tag), where
    the two models are independent copies of the source."""
    if vars(defender.config) != vars(attacker.config):
        raise ContractViolation("defender and attacker are structurally different")
    p_attacker = float(sigmoid(eval_attacker - eval_defender))
    pick_attacker = rng.uniform() < p_attacker
    source = attacker if pick_attacker else defender
    return (ptree.copy_tree(source), ptree.copy_tree(source),
            "attacker" if pick_attacker else "defender")


def _update_on_batch(params, batch, lr, opt_state, item_masks=None, skip_blocks=None):
    """Forward the batch one sequence at a time, item i under the layer
    masks item_masks[i] and every item under skip_blocks; average the loss,
    sum every item's gradient into one buffer and apply one optimizer step.
    Returns the loss."""
    item_masks = [None] * len(batch) if item_masks is None else item_masks
    logits_rows = []
    caches = []
    labels = []
    for (tokens, label), layer_masks in zip(batch, item_masks):
        logits, cache = task_forward(params, tokens, layer_masks, skip_blocks)
        logits_rows.append(logits[0])
        caches.append(cache)
        labels.append(label)
    loss, dlogits = cross_entropy_logits(np.stack(logits_rows), labels)
    grads = ptree.zeros_like(params)
    for i, cache in enumerate(caches):
        task_backward(cache, dlogits[i:i + 1], grads)
    optimizer_step(params, grads, lr, opt_state)
    return loss


# ---------------------------------------------------------------------------
# The adversarial loop
# ---------------------------------------------------------------------------


@dataclass
class AttendOutGame:
    """decisions holds the open window's (tokens, MaskDecision) pairs;
    windows_done counts finished windows, one generator update each."""

    defender: TaskModelParams
    attacker: TaskModelParams
    generator: GeneratorParams
    opt_defender: OptimizerState
    opt_attacker: OptimizerState
    baseline: Baseline
    eval_pool: list
    policy_rng: RngState
    eval_rng: RngState
    sync_rng: RngState
    decisions: list = field(default_factory=list)
    windows_done: int = 0
    boundary_identical: bool = True


def dropout_step(game: AttendOutGame, stream: BatchStream, cfg: TrainConfig):
    """Run one window of up to T inner steps plus, when the window fills,
    the evaluate / reward / generator-update / re-sync tail.

    Returns the metrics rows produced. A window cut short by the end of the
    training budget performs no generator update (the epoch-boundary signal
    is not an error). Either way the window's decisions are released.
    """
    if game.decisions:
        raise ContractViolation("dropout step started with a non-empty cache")
    num_layers = game.defender.config.num_layers
    rows = []
    for _ in range(cfg.dropout_step):
        item = stream.next()
        if item is None:
            break
        step, epoch, batch = item
        loss_d = _update_on_batch(game.defender, batch, cfg.lr, game.opt_defender)

        step_decisions = [
            (tokens, gnet_sample_masks(game.generator, tokens, num_layers, game.policy_rng))
            for tokens, _ in batch
        ]
        item_masks = [[MaskMatrix.from_drop_bits(bits) for bits in decision.masks]
                      for _, decision in step_decisions]
        loss_a = _update_on_batch(
            game.attacker, batch, cfg.lr, game.opt_attacker, item_masks
        )
        game.decisions.extend(step_decisions)

        rows.append({
            "step": step, "epoch": epoch, "method": cfg.method,
            "loss_D": loss_d, "loss_A": loss_a,
        })

    if len(rows) == cfg.dropout_step:
        draw = game.eval_rng.derive(game.windows_done)
        idx = draw.choice_without_replacement(len(game.eval_pool), cfg.dropout_step)
        samples = [game.eval_pool[i] for i in idx]
        eval_d = evaluate(game.defender, samples)
        eval_a = evaluate(game.attacker, samples)

        rewards = compute_rewards(eval_a, eval_d, cfg.reward)
        game.baseline = update_baseline(game.baseline, rewards)
        reinforce_update(game.generator, game.decisions, rewards, game.baseline, cfg.gnet_lr)

        layer_probs = np.mean([d.layer_mean_prob for _, d in game.decisions], axis=0)
        rows[-1].update({
            "eval_D": eval_d, "eval_A": eval_a,
            "reward_mean": rewards.reward, "baseline": game.baseline.value,
            "drop_prob": [float(v) for v in layer_probs],
        })

        game.defender, game.attacker, source = sync_models(
            game.defender, game.attacker, eval_d, eval_a, game.sync_rng
        )
        src_state = game.opt_attacker if source == "attacker" else game.opt_defender
        game.opt_defender = _copy_opt_state(src_state)
        game.opt_attacker = _copy_opt_state(src_state)
        game.boundary_identical &= ptree.trees_equal(game.defender, game.attacker)
        game.windows_done += 1
    game.decisions.clear()
    return rows


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    method: str
    metrics: list
    mask_trace: list
    models: dict
    dev_accuracy: float
    extra: dict = field(default_factory=dict)


def _generate_dataset(cfg: TrainConfig) -> tasks.Dataset:
    if cfg.task == TASK_MAJORITY:
        return tasks.gen_majority_token(cfg.data_n, cfg.seq_len, cfg.vocab, cfg.seed)
    if cfg.task == TASK_BRACKETS:
        return tasks.gen_balanced_brackets(cfg.data_n, cfg.seq_len - 1, cfg.seed)
    raise ConfigError(f"unknown task {cfg.task!r}")


def train(config: TrainConfig) -> TrainResult:
    """Run one training job as configured; pure function of the config."""
    full = _generate_dataset(config)
    fractions = (config.train_fraction, config.dev_fraction, config.test_fraction)
    train_ds, dev_ds, test_ds = tasks.split(full, fractions, config.seed)
    mcfg = model_config(config)
    root = RngState(config.seed)

    if config.method == METHOD_ATTENDOUT:
        return _train_attendout(config, mcfg, train_ds, dev_ds, root)
    return _train_single(config, mcfg, train_ds, dev_ds, root)


def _train_single(cfg: TrainConfig, mcfg: ModelConfig, train_ds, dev_ds, root):
    model = init_task_model(mcfg, cfg.seed)
    opt = OptimizerState(cfg.opt_algo, cfg.momentum)
    stream = BatchStream(train_ds.examples, cfg.batch_size, cfg.epochs,
                         root.derive("data"))
    mask_rng = root.derive("masks")

    metrics = []
    mask_trace = []
    while True:
        item = stream.next()
        if item is None:
            break
        step, epoch, batch = item
        row = {"step": step, "epoch": epoch, "method": cfg.method}

        item_masks = skips = None
        if cfg.method in (METHOD_VANILLA, METHOD_SCHEDULED):
            if cfg.method == METHOD_VANILLA:
                probs = [cfg.p] * cfg.layers
            else:
                probs = [schedule_probability(cfg.schedule, i, step) for i in range(cfg.layers)]
                for layer, prob in enumerate(probs):
                    mask_trace.append((step, layer, prob))
            mode = cfg.vanilla_mode if cfg.method == METHOD_VANILLA else "scores"
            rescale = cfg.method == METHOD_VANILLA and cfg.vanilla_rescale
            item_masks = [
                [vanilla_attention_mask(tokens.size, probs[i], mask_rng, mode, rescale)
                 for i in range(cfg.layers)]
                for tokens, _ in batch
            ]
            row["drop_prob"] = [float(p) for p in probs]
        elif cfg.method == METHOD_LAYERDROP:
            skips = layerdrop_decision(cfg.layers, cfg.p, mask_rng)
            row["drop_prob"] = [cfg.p] * cfg.layers
        elif cfg.method == METHOD_ATTN_LAYERDROP:
            bits = layerdrop_decision(cfg.layers, cfg.p, mask_rng)
            layer_masks = [MaskMatrix.all_dropped() if b else None for b in bits]
            item_masks = [layer_masks] * len(batch)
            row["drop_prob"] = [cfg.p] * cfg.layers
        elif cfg.method != METHOD_NONE:
            raise ConfigError(f"method {cfg.method!r} has no single-model loop")

        loss = _update_on_batch(model, batch, cfg.lr, opt, item_masks, skips)
        row["loss_D"] = loss
        metrics.append(row)

    dev_accuracy = evaluate(model, dev_ds.examples) if len(dev_ds) else float("nan")
    return TrainResult(cfg.method, metrics, mask_trace, {"model": model},
                       dev_accuracy, extra={"total_steps": stream.total_steps})


def _train_attendout(cfg: TrainConfig, mcfg: ModelConfig, train_ds, dev_ds, root):
    train_examples = list(train_ds.examples)
    if cfg.eval_pool == "dev":
        eval_pool = list(dev_ds.examples)
    else:
        held = eval_slice_size(len(train_examples), cfg.eval_slice_fraction)
        eval_pool = train_examples[-held:]
        train_examples = train_examples[:-held]
    defender = init_task_model(mcfg, cfg.seed)
    attacker = ptree.copy_tree(defender)
    generator = init_generator(
        GeneratorConfig(cfg.vocab, cfg.gnet_dim, cfg.tau), cfg.seed
    )
    game = AttendOutGame(
        defender=defender, attacker=attacker, generator=generator,
        opt_defender=OptimizerState(cfg.opt_algo, cfg.momentum),
        opt_attacker=OptimizerState(cfg.opt_algo, cfg.momentum),
        baseline=Baseline(decay=cfg.baseline_decay),
        eval_pool=eval_pool,
        policy_rng=root.derive("policy"),
        eval_rng=root.derive("eval"),
        sync_rng=root.derive("sync"),
    )
    game.boundary_identical &= ptree.trees_equal(game.defender, game.attacker)

    stream = BatchStream(train_examples, cfg.batch_size, cfg.epochs,
                         root.derive("data"))
    metrics = []
    mask_trace = []
    while stream.remaining > 0:
        before = game.windows_done
        rows = dropout_step(game, stream, cfg)
        metrics.extend(rows)
        if game.windows_done > before:
            for layer, prob in enumerate(rows[-1]["drop_prob"]):
                mask_trace.append((before, layer, prob))

    dev_accuracy = evaluate(game.defender, dev_ds.examples) if len(dev_ds) else float("nan")
    attacker_accuracy = evaluate(game.attacker, dev_ds.examples) if len(dev_ds) else float("nan")
    return TrainResult(
        cfg.method, metrics, mask_trace,
        {"defender": game.defender, "attacker": game.attacker,
         "generator": game.generator},
        dev_accuracy,
        extra={
            "total_steps": stream.total_steps,
            "g_updates": game.windows_done,
            "boundary_identical": game.boundary_identical,
            "cache_empty": not game.decisions,
            "attacker_dev_accuracy": attacker_accuracy,
        },
    )
