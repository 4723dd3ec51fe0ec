"""Typed run configuration.

Config files are INI-style: shared sections [run], [data], [model] and
[optimizer], plus exactly one method section ([attendout], [vanilla],
[layerdrop], [attn_layerdrop] or [scheduled]) when the method needs
parameters. Unknown sections or keys are hard errors; silent typos are how
ablations die. The fairness hash covers everything shared (method name,
seed and method-specific sections excluded), which is what the comparison
harness checks before trusting a method-vs-method table.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .models import ModelConfig
from .numkernel import ConfigError, ShapeError
from .regularizers import Schedule, load_schedule_file
from .tasks import NUM_CLASSES, split_sizes

METHOD_NONE = "none"
METHOD_ATTENDOUT = "attendout"
METHOD_VANILLA = "vanilla"
METHOD_LAYERDROP = "layerdrop"
METHOD_ATTN_LAYERDROP = "attn_layerdrop"
METHOD_SCHEDULED = "scheduled"

METHODS = (METHOD_NONE, METHOD_ATTENDOUT, METHOD_VANILLA, METHOD_LAYERDROP,
           METHOD_ATTN_LAYERDROP, METHOD_SCHEDULED)

TASK_MAJORITY = "majority_token"
TASK_BRACKETS = "balanced_brackets"


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from None


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# INI key -> (TrainConfig field, converter, required). An optional key that
# is absent keeps its field's dataclass default.
_SCHEMA = {
    "run": {
        "method": ("method", str, True),
        "seed": ("seed", int, True),
        "epochs": ("epochs", int, True),
    },
    "data": {
        "task": ("task", str, True),
        "n": ("data_n", int, True),
        "seq_len": ("seq_len", int, True),
        "vocab": ("vocab", int, True),
        "train_fraction": ("train_fraction", float, False),
        "dev_fraction": ("dev_fraction", float, False),
        "test_fraction": ("test_fraction", float, False),
    },
    "model": {
        "layers": ("layers", int, True),
        "d_model": ("d_model", int, True),
        "d_ff": ("d_ff", int, True),
        "heads": ("heads", int, True),
    },
    "optimizer": {
        "algo": ("opt_algo", str, False),
        "lr": ("lr", float, True),
        "momentum": ("momentum", float, False),
        "batch_size": ("batch_size", int, True),
    },
    "attendout": {
        "dropout_step": ("dropout_step", int, True),
        "gnet_lr": ("gnet_lr", float, True),
        "gnet_dim": ("gnet_dim", int, False),
        "tau": ("tau", float, False),
        "baseline_decay": ("baseline_decay", float, False),
        "reward": ("reward", str, False),
        "eval_pool": ("eval_pool", str, False),
        "eval_slice_fraction": ("eval_slice_fraction", float, False),
    },
    "vanilla": {
        "p": ("p", float, True),
        "mode": ("vanilla_mode", str, False),
        "rescale": ("vanilla_rescale", _bool, False),
    },
    "layerdrop": {
        "p": ("p", float, True),
    },
    "attn_layerdrop": {
        "p": ("p", float, True),
    },
    "scheduled": {
        "p0": ("sched_p0", _float_list, False),
        "slope": ("sched_slope", _float_list, False),
        "schedule_file": ("schedule_file", str, False),
    },
}

# Every section but these is a method section named after its method.
_SHARED_SECTIONS = ("run", "data", "model", "optimizer")


@dataclass
class TrainConfig:
    method: str
    seed: int
    epochs: int
    task: str
    data_n: int
    seq_len: int
    vocab: int
    layers: int
    d_model: int
    d_ff: int
    heads: int
    lr: float
    batch_size: int
    train_fraction: float = 0.8
    dev_fraction: float = 0.1
    test_fraction: float = 0.1
    opt_algo: str = "adam"
    momentum: float = 0.0
    # attendout
    dropout_step: int = 0
    gnet_lr: float = 0.0
    gnet_dim: int = 0  # 0 means d_model // 2
    tau: float = 1.0
    baseline_decay: float = 0.9
    reward: str = "signed"
    eval_pool: str = "dev"
    eval_slice_fraction: float = 0.1
    # vanilla / layerdrop / attn_layerdrop
    p: float = 0.0
    vanilla_mode: str = "scores"
    vanilla_rescale: bool = False
    # scheduled
    sched_p0: list[float] | None = None
    sched_slope: list[float] | None = None
    schedule_file: str | None = None
    # Built from p0/slope or read from schedule_file once, when the config
    # is checked; training uses this object and never re-reads the file.
    schedule: Schedule | None = field(default=None, init=False, compare=False)
    fairness_hash: str = ""
    source_text: str = ""


def _parse_section(parser, section: str, found: dict) -> None:
    spec = _SCHEMA[section]
    items = dict(parser.items(section))
    unknown = set(items) - set(spec)
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: {sorted(unknown)}")
    for key, (name, conv, required) in spec.items():
        if key in items:
            try:
                found[name] = conv(items[key])
            except ConfigError:
                raise
            except (TypeError, ValueError):
                raise ConfigError(
                    f"[{section}] {key}: cannot parse {items[key]!r} as {conv.__name__}"
                ) from None
        elif required:
            raise ConfigError(f"missing required field [{section}] {key}")


def compute_fairness_hash(parser: configparser.ConfigParser) -> str:
    """Hash of the shared sections with the method name and the seed
    stripped out."""
    parts = []
    for section in sorted(_SHARED_SECTIONS):
        for key, value in sorted(parser.items(section)):
            if section == "run" and key in ("method", "seed"):
                continue
            parts.append(f"{section}.{key}={value}")
    blob = "\n".join(parts).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def parse_config_text(text: str) -> TrainConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    unknown = set(parser.sections()) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    for section in _SHARED_SECTIONS:
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    found: dict = {}
    _parse_section(parser, "run", found)
    method = found["method"] = found["method"].lower()
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; one of {METHODS}")
    for section in _SHARED_SECTIONS[1:]:
        _parse_section(parser, section, found)
    extra = set(parser.sections()) - set(_SHARED_SECTIONS) - {method}
    if extra:
        raise ConfigError(f"section [{min(extra)}] is not allowed when method = {method}")
    if method != METHOD_NONE:
        if not parser.has_section(method):
            raise ConfigError(f"method {method!r} requires a [{method}] section")
        _parse_section(parser, method, found)

    cfg = TrainConfig(**found, fairness_hash=compute_fairness_hash(parser),
                      source_text=text)
    cfg.opt_algo = cfg.opt_algo.lower()
    if method == METHOD_ATTENDOUT:
        cfg.gnet_dim = cfg.gnet_dim or cfg.d_model // 2
    _validate(cfg)
    return cfg


def model_config(cfg: TrainConfig) -> ModelConfig:
    return ModelConfig(
        vocab_size=cfg.vocab, max_len=cfg.seq_len, num_layers=cfg.layers,
        d_model=cfg.d_model, d_ff=cfg.d_ff, num_heads=cfg.heads,
        num_classes=NUM_CLASSES,
    )


def eval_slice_size(train_size: int, fraction: float) -> int:
    """Size of an attendout train_slice pool, cut from the train split's end."""
    return max(1, int(train_size * fraction))


def _validate(cfg: TrainConfig) -> None:
    """Range and consistency checks on config values; they run at load, so a
    bad value fails before any run directory is written."""
    if cfg.task not in (TASK_MAJORITY, TASK_BRACKETS):
        raise ConfigError(f"unknown task {cfg.task!r}")
    if cfg.task == TASK_MAJORITY:
        if cfg.vocab < 3:
            raise ConfigError(f"majority_token needs vocab >= 3, got {cfg.vocab}")
        if cfg.seq_len < 2:
            raise ConfigError(f"majority_token needs seq_len >= 2, got {cfg.seq_len}")
    if cfg.task == TASK_BRACKETS:
        if cfg.vocab != 3:
            raise ConfigError("balanced_brackets uses a fixed vocabulary of 3")
        if cfg.seq_len < 3 or cfg.seq_len % 2 == 0:
            raise ConfigError(f"balanced_brackets needs an odd seq_len >= 3, got {cfg.seq_len}")
    if cfg.data_n < 1:
        raise ConfigError(f"[data] n must be >= 1, got {cfg.data_n}")
    train_size, dev_size, _ = split_sizes(
        cfg.data_n, (cfg.train_fraction, cfg.dev_fraction, cfg.test_fraction))
    try:
        model_config(cfg).validate()
    except ShapeError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {cfg.epochs}")
    if cfg.batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {cfg.batch_size}")
    if cfg.opt_algo not in ("sgd", "adam"):
        raise ConfigError(f"optimizer algo must be sgd or adam, got {cfg.opt_algo!r}")
    if not math.isfinite(cfg.lr):
        raise ConfigError(f"lr must be finite, got {cfg.lr}")
    if not 0.0 <= cfg.momentum < 1.0:
        raise ConfigError(f"momentum must lie in [0, 1), got {cfg.momentum}")
    if cfg.method == METHOD_ATTENDOUT:
        if cfg.dropout_step < 1:
            raise ConfigError(f"dropout_step must be >= 1, got {cfg.dropout_step}")
        if not math.isfinite(cfg.gnet_lr):
            raise ConfigError(f"gnet_lr must be finite, got {cfg.gnet_lr}")
        if cfg.gnet_dim < 1:
            raise ConfigError(f"gnet_dim must resolve to >= 1, got {cfg.gnet_dim}")
        if cfg.reward not in ("signed", "gap"):
            raise ConfigError(f"reward must be signed or gap, got {cfg.reward!r}")
        if cfg.eval_pool not in ("dev", "train_slice"):
            raise ConfigError(f"eval_pool must be dev or train_slice, got {cfg.eval_pool!r}")
        if not 0.0 < cfg.eval_slice_fraction < 1.0:
            raise ConfigError(
                f"eval_slice_fraction must lie in (0, 1), got {cfg.eval_slice_fraction}")
        if cfg.tau <= 0:
            raise ConfigError(f"tau must be positive, got {cfg.tau}")
        if not 0.0 < cfg.baseline_decay < 1.0:
            raise ConfigError(f"baseline_decay must lie in (0, 1), got {cfg.baseline_decay}")
        pool = (dev_size if cfg.eval_pool == "dev"
                else eval_slice_size(train_size, cfg.eval_slice_fraction))
        if pool < cfg.dropout_step:
            raise ConfigError(
                f"evaluation pool of {pool} cannot cover T={cfg.dropout_step}")
    if cfg.method in (METHOD_VANILLA, METHOD_LAYERDROP, METHOD_ATTN_LAYERDROP):
        if not 0.0 <= cfg.p <= 1.0:
            raise ConfigError(f"p must be in [0, 1], got {cfg.p}")
        if cfg.method == METHOD_VANILLA and cfg.vanilla_mode not in ("scores", "weights"):
            raise ConfigError(f"vanilla mode must be scores or weights, got {cfg.vanilla_mode!r}")
    if cfg.method == METHOD_SCHEDULED:
        p0, slope = cfg.sched_p0, cfg.sched_slope
        has_linear = p0 is not None or slope is not None
        if has_linear and (p0 is None or slope is None):
            raise ConfigError("[scheduled] p0 and slope must be given together")
        if has_linear and cfg.schedule_file is not None:
            raise ConfigError("[scheduled] give either p0/slope or schedule_file, not both")
        if not has_linear and cfg.schedule_file is None:
            raise ConfigError("[scheduled] needs p0/slope or a schedule_file")
        for name, vals in (("p0", p0), ("slope", slope)):
            if vals is not None and len(vals) not in (1, cfg.layers):
                raise ConfigError(
                    f"[scheduled] {name} needs 1 or {cfg.layers} values, got {len(vals)}"
                )
        if cfg.schedule_file is not None:
            cfg.schedule = load_schedule_file(cfg.schedule_file, cfg.layers)
        else:
            cfg.schedule = Schedule.linear(p0, slope, cfg.layers)


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
