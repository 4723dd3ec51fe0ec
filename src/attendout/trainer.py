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
and both task models are re-synchronized in place to a single source
sampled with higher probability for the better scorer. Each task model's
buffers are made once: its optimizer state owns its gradient tree and
moments, a batch clears the tree and sums into it, and the re-sync copies
the source's parameters and moments into the other side.

All randomness flows through named counter-based streams, so two runs with
the same config and seed produce byte-identical metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """One model's buffers, made once by `optimizer_state`: its gradient
    tree, whole-model vectors m (SGD velocity or Adam's first moment) and v
    (Adam's second moment), and two scratch vectors a step writes its
    intermediate values into."""

    grads: ptree.ParamTree
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    algo: str
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0


def optimizer_state(params, algo: str, momentum: float = 0.0) -> OptimizerState:
    """Zeroed optimizer buffers shaped like params."""
    flat = params.flat
    return OptimizerState(ptree.zeros_like(params), np.zeros_like(flat), np.zeros_like(flat),
                          (np.empty_like(flat), np.empty_like(flat)), algo, momentum)


def optimizer_step(params, grads, lr: float, state: OptimizerState):
    """One in-place SGD/momentum/Adam step over the whole parameter buffer;
    every intermediate vector is one of the state's scratch vectors."""
    bad = ptree.first_nonfinite(grads)
    if bad is not None:
        raise DivergenceError(f"non-finite gradient in {bad}")
    state.t += 1
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    s1, s2 = state.scratch
    if state.algo == "sgd":
        if state.momentum > 0.0:
            m *= state.momentum
            m += g
            g = m
        p -= np.multiply(lr, g, out=s1)
    elif state.algo == "adam":
        m *= state.beta1
        m += np.multiply(1 - state.beta1, g, out=s1)
        v *= state.beta2
        v += np.multiply(np.multiply(1 - state.beta2, g, out=s1), g, out=s1)
        # p -= lr * m_hat / (sqrt(v_hat) + eps), with m_hat in s1, v_hat in s2
        m_hat = np.divide(m, 1 - state.beta1 ** state.t, out=s1)
        v_hat = np.divide(v, 1 - state.beta2 ** state.t, out=s2)
        np.sqrt(v_hat, out=v_hat)
        v_hat += state.eps
        m_hat *= lr
        m_hat /= v_hat
        p -= m_hat
    else:
        raise ConfigError(f"unknown optimizer {state.algo!r}")


# ---------------------------------------------------------------------------
# Data flow
# ---------------------------------------------------------------------------


class BatchStream:
    """Epoch-shuffled batches of a Dataset's rows, epochs * ceil(n / batch) of them.

    Reshuffles from a per-epoch derived stream, so the order is a pure
    function of (seed, epoch). Returns None when the step budget is spent;
    within the budget, epoch boundaries are crossed transparently.
    """

    def __init__(self, data: tasks.Dataset, batch_size: int, epochs: int, rng: RngState):
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.data = data
        self.batch_size = batch_size
        self.rng = rng
        n = len(data)
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
            self._order = self.rng.derive(epoch).permutation(len(self.data))
        pos = (self.step % self.steps_per_epoch) * self.batch_size
        batch = self.data.take(self._order[pos:pos + self.batch_size])
        step = self.step
        self.step += 1
        return step, epoch, batch


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def evaluate(params: TaskModelParams, samples: tasks.Dataset) -> float:
    """Clean-forward accuracy (no masks ever apply at evaluation)."""
    if not len(samples):
        raise ContractViolation("evaluation needs at least one sample")
    correct = 0
    for tokens, label in zip(samples.tokens, samples.labels):
        logits, _ = task_forward(params, tokens)
        correct += int(np.argmax(logits[0]) == label)
    return correct / len(samples)


def sync_models(defender: TaskModelParams, attacker: TaskModelParams,
                opt_defender: OptimizerState, opt_attacker: OptimizerState,
                eval_defender: float, eval_attacker: float, rng: RngState) -> str:
    """Collapse both task models onto one source, sampled with probability
    softmax(eval scores), and return its tag. The source's parameters,
    moments and step count are copied in place into the other model and
    its optimizer state, so each side keeps its own buffers."""
    if vars(defender.config) != vars(attacker.config):
        raise ContractViolation("defender and attacker are structurally different")
    p_attacker = float(sigmoid(eval_attacker - eval_defender))
    pick_attacker = rng.uniform() < p_attacker
    sides = [(defender, opt_defender), (attacker, opt_attacker)]
    (dst, dst_opt), (src, src_opt) = sides if pick_attacker else sides[::-1]
    np.copyto(dst.flat, src.flat)
    np.copyto(dst_opt.m, src_opt.m)
    np.copyto(dst_opt.v, src_opt.v)
    dst_opt.t = src_opt.t
    return "attacker" if pick_attacker else "defender"


def _update_on_batch(params, batch, lr, opt_state, item_masks=None, skip_blocks=None):
    """Forward the batch (a Dataset) one sequence at a time, item i under the layer
    masks item_masks[i] and every item under skip_blocks; average the loss,
    sum every item's gradient into opt_state's cleared gradient tree and
    apply one optimizer step. Returns the loss; a non-finite loss raises
    DivergenceError before the step."""
    item_masks = [None] * len(batch) if item_masks is None else item_masks
    logits_rows = []
    caches = []
    for tokens, layer_masks in zip(batch.tokens, item_masks):
        logits, cache = task_forward(params, tokens, layer_masks, skip_blocks)
        logits_rows.append(logits[0])
        caches.append(cache)
    loss, dlogits = cross_entropy_logits(np.stack(logits_rows), batch.labels)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite batch loss {loss}")
    grads = opt_state.grads
    grads.flat.fill(0.0)
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
    eval_pool is the Dataset each window draws its evaluation rows from;
    windows_done counts finished windows, one generator update each. The
    task models and optimizer states are never reassigned; sync writes into them.
    policy_buffers are the generator update's two gradient trees, made once."""

    defender: TaskModelParams
    attacker: TaskModelParams
    generator: GeneratorParams
    opt_defender: OptimizerState
    opt_attacker: OptimizerState
    baseline: Baseline
    eval_pool: tasks.Dataset
    policy_rng: RngState
    eval_rng: RngState
    sync_rng: RngState
    decisions: list = field(default_factory=list)
    windows_done: int = 0
    boundary_identical: bool = True
    policy_buffers: tuple = field(init=False)

    def __post_init__(self):
        self.policy_buffers = (ptree.zeros_like(self.generator),
                               ptree.zeros_like(self.generator))


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
            for tokens in batch.tokens
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
        samples = game.eval_pool.take(idx)
        eval_d = evaluate(game.defender, samples)
        eval_a = evaluate(game.attacker, samples)

        rewards = compute_rewards(eval_a, eval_d, cfg.reward)
        game.baseline = update_baseline(game.baseline, rewards)
        reinforce_update(game.generator, game.decisions, rewards, game.baseline, cfg.gnet_lr,
                         game.policy_buffers)

        layer_probs = np.mean([d.layer_mean_prob for _, d in game.decisions], axis=0)
        rows[-1].update({
            "eval_D": eval_d, "eval_A": eval_a,
            "reward_mean": rewards.reward, "baseline": game.baseline.value,
            "drop_prob": [float(v) for v in layer_probs],
        })

        sync_models(game.defender, game.attacker, game.opt_defender, game.opt_attacker,
                    eval_d, eval_a, game.sync_rng)
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
    fractions = (config.train_fraction, config.dev_fraction, config.test_fraction)
    train_ds, dev_ds, _ = tasks.split(_generate_dataset(config), fractions, config.seed)
    mcfg = model_config(config)
    root = RngState(config.seed)

    if config.method == METHOD_ATTENDOUT:
        return _train_attendout(config, mcfg, train_ds, dev_ds, root)
    return _train_single(config, mcfg, train_ds, dev_ds, root)


def _train_single(cfg: TrainConfig, mcfg: ModelConfig, train_ds, dev_ds, root):
    model = init_task_model(mcfg, cfg.seed)
    opt = optimizer_state(model, cfg.opt_algo, cfg.momentum)
    stream = BatchStream(train_ds, cfg.batch_size, cfg.epochs, root.derive("data"))
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
                [vanilla_attention_mask(cfg.seq_len, probs[i], mask_rng, mode, rescale)
                 for i in range(cfg.layers)]
                for _ in range(len(batch))
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

    dev_accuracy = evaluate(model, dev_ds) if len(dev_ds) else float("nan")
    return TrainResult(cfg.method, metrics, mask_trace, {"model": model},
                       dev_accuracy, extra={"total_steps": stream.total_steps})


def _train_attendout(cfg: TrainConfig, mcfg: ModelConfig, train_ds, dev_ds, root):
    eval_pool = dev_ds
    if cfg.eval_pool == "train_slice":
        held = eval_slice_size(len(train_ds), cfg.eval_slice_fraction)
        eval_pool = train_ds.take(slice(-held, None))
        train_ds = train_ds.take(slice(None, -held))
    defender = init_task_model(mcfg, cfg.seed)
    attacker = ptree.copy_tree(defender)
    generator = init_generator(
        GeneratorConfig(cfg.vocab, cfg.gnet_dim, cfg.tau), cfg.seed
    )
    game = AttendOutGame(
        defender=defender, attacker=attacker, generator=generator,
        opt_defender=optimizer_state(defender, cfg.opt_algo, cfg.momentum),
        opt_attacker=optimizer_state(attacker, cfg.opt_algo, cfg.momentum),
        baseline=Baseline(decay=cfg.baseline_decay),
        eval_pool=eval_pool,
        policy_rng=root.derive("policy"),
        eval_rng=root.derive("eval"),
        sync_rng=root.derive("sync"),
    )
    game.boundary_identical &= ptree.trees_equal(game.defender, game.attacker)

    stream = BatchStream(train_ds, cfg.batch_size, cfg.epochs, root.derive("data"))
    metrics = []
    mask_trace = []
    while stream.remaining > 0:
        before = game.windows_done
        rows = dropout_step(game, stream, cfg)
        metrics.extend(rows)
        if game.windows_done > before:
            for layer, prob in enumerate(rows[-1]["drop_prob"]):
                mask_trace.append((before, layer, prob))

    dev_accuracy = evaluate(game.defender, dev_ds) if len(dev_ds) else float("nan")
    attacker_accuracy = evaluate(game.attacker, dev_ds) if len(dev_ds) else float("nan")
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
