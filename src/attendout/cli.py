"""Command-line entry point.

Subcommands:
  train            run one configured training job and write its artifacts
  gradcheck        run every gradient/enumeration verification suite
  replay-schedule  train with scheduled Bernoulli dropout taken from a
                   schedule file, and emit the realized probability trace
  compare          run several configs over a seed set under a mechanical
                   fairness check and tabulate dev accuracies

Every run directory is self-describing: manifest.json (written before
training) plus the config snapshot reproduce the run byte for byte. The
output root honors ATTENDOUT_OUT_ROOT when --out is relative or omitted.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checks import run_all_checks
from .config import (
    METHOD_ATTENDOUT,
    METHOD_NONE,
    METHOD_SCHEDULED,
    TrainConfig,
    load_config,
)
from .models import save_checkpoint
from .numkernel import ConfigError, ContractViolation, DivergenceError, ShapeError
from .regularizers import load_schedule_file
from .trainer import TrainResult, train

ENV_OUT_ROOT = "ATTENDOUT_OUT_ROOT"


def _out_dir(arg: str | None, default_name: str) -> Path:
    root = Path(os.environ.get(ENV_OUT_ROOT, "."))
    if arg is None:
        return root / "runs" / default_name
    path = Path(arg)
    return path if path.is_absolute() else root / path


def _strict_json(obj) -> str:
    """JSON text with every non-finite float (the accuracy on an empty dev
    split) written as null; a bare NaN would make the file invalid JSON."""
    finite = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(finite, indent=2, allow_nan=False) + "\n"


def _write_manifest(out: Path, cfg: TrainConfig, config_path: str, argv_seed) -> None:
    manifest = {
        "version": __version__,
        "config_path": str(config_path),
        "config_text": cfg.source_text,
        "seed": cfg.seed,
        "seed_overridden": argv_seed is not None,
        "method": cfg.method,
        "schedule_file": cfg.schedule_file,
        "fairness_hash": cfg.fairness_hash,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": {
            "metrics": "metrics.jsonl",
            "mask_trace": "mask_trace.csv",
            "result": "result.json",
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_metrics(out: Path, result: TrainResult) -> None:
    with open(out / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for row in result.metrics:
            fh.write(json.dumps(row) + "\n")


def _write_mask_trace(out: Path, result: TrainResult) -> None:
    if not result.mask_trace:
        return
    with open(out / "mask_trace.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dropout_step", "layer", "mean_drop_prob"])
        for window, layer, prob in result.mask_trace:
            writer.writerow([window, layer, repr(float(prob))])


def _write_result(out: Path, result: TrainResult) -> None:
    payload = {
        "method": result.method,
        "dev_accuracy": result.dev_accuracy,
        "ended_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    payload.update({k: v for k, v in result.extra.items()
                    if isinstance(v, (int, float, bool, str))})
    (out / "result.json").write_text(_strict_json(payload))


def _write_checkpoints(out: Path, result: TrainResult) -> None:
    for name, params in result.models.items():
        save_checkpoint(out / f"{name}.npz", params)


def _run_and_write(cfg: TrainConfig, out: Path, config_path: str, argv_seed) -> TrainResult:
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, cfg, config_path, argv_seed)
    result = train(cfg)
    _write_metrics(out, result)
    _write_mask_trace(out, result)
    _write_checkpoints(out, result)
    _write_result(out, result)
    return result


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    out = _out_dir(args.out, f"{Path(args.config).stem}-seed{cfg.seed}")
    result = _run_and_write(cfg, out, args.config, args.seed)
    print(f"method={result.method} dev_accuracy={result.dev_accuracy:.4f} "
          f"steps={len(result.metrics)} out={out}")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.config:
        seed = load_config(args.config).seed if args.seed is None else seed
    reports = run_all_checks(seed=seed, corrupt=args.corrupt)
    by_suite: dict[str, list] = {}
    for rep in reports:
        by_suite.setdefault(rep.suite, []).append(rep)
    failed = []
    for suite, reps in by_suite.items():
        worst = max(reps, key=lambda r: r.max_rel_err / r.tolerance)
        status = "PASS" if all(r.passed for r in reps) else "FAIL"
        print(f"{status}  {suite:24s} max_rel_err={worst.max_rel_err:.3e} "
              f"(tol {worst.tolerance:.0e}, worst tensor {worst.tensor}, "
              f"{worst.seconds:.2f}s)")
        failed += [r for r in reps if not r.passed]
    if failed:
        for rep in failed:
            print(f"tolerance breach: {rep.suite} tensor {rep.tensor} "
                  f"rel_err={rep.max_rel_err:.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_replay_schedule(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if cfg.method not in (METHOD_NONE, METHOD_SCHEDULED):
        raise ConfigError(
            "replay-schedule needs a config with method none or scheduled, "
            f"got {cfg.method!r}"
        )
    cfg.method = METHOD_SCHEDULED
    cfg.sched_p0 = None
    cfg.sched_slope = None
    cfg.schedule_file = args.schedule
    cfg.schedule = load_schedule_file(args.schedule, cfg.layers)
    out = _out_dir(args.out, f"replay-{Path(args.schedule).stem}-seed{cfg.seed}")
    result = _run_and_write(cfg, out, args.config, args.seed)

    realized = {(step, layer): prob for step, layer, prob in result.mask_trace}
    mismatches = []
    for layer, points in enumerate(cfg.schedule.breakpoints):
        for step, prob in points:
            got = realized.get((step, layer))
            if got is not None and got != prob:
                mismatches.append((layer, step, prob, got))
    print(f"replayed schedule over {len(result.metrics)} steps, "
          f"dev_accuracy={result.dev_accuracy:.4f} out={out}")
    if mismatches:
        for layer, step, want, got in mismatches:
            print(f"breakpoint mismatch: layer {layer} step {step} "
                  f"schedule {want} realized {got}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    configs = [load_config(path) for path in args.configs]
    if len(configs) < 2:
        raise ConfigError("compare needs at least two configs")
    reference = configs[0].fairness_hash
    for path, cfg in zip(args.configs, configs):
        if cfg.fairness_hash != reference:
            raise ConfigError(
                f"fairness violation: {path} differs from {args.configs[0]} "
                "beyond the method-specific sections"
            )
    base_seed = args.seed if args.seed is not None else configs[0].seed
    out = _out_dir(args.out, "compare")
    out.mkdir(parents=True, exist_ok=True)

    summary = []
    for idx, (path, cfg) in enumerate(zip(args.configs, configs)):
        label = f"{Path(path).stem}:{cfg.method}"
        accuracies = []
        runs = []
        for k in range(args.seeds):
            run_cfg = copy.copy(cfg)
            run_cfg.seed = base_seed + k
            run_dir = out / f"{idx:02d}-{Path(path).stem}-seed{run_cfg.seed}"
            result = _run_and_write(run_cfg, run_dir, path, run_cfg.seed)
            accuracies.append(result.dev_accuracy)
            run = {"seed": run_cfg.seed, "dev_accuracy": result.dev_accuracy,
                   "dir": str(run_dir)}
            if cfg.method == METHOD_ATTENDOUT and result.mask_trace:
                last_window = max(w for w, _, _ in result.mask_trace)
                run["final_drop_prob"] = [
                    prob for w, _, prob in sorted(result.mask_trace)
                    if w == last_window
                ]
            runs.append(run)
        accs = np.array(accuracies)
        summary.append({
            "label": label, "method": cfg.method,
            "mean_dev_accuracy": float(accs.mean()),
            "std_dev_accuracy": float(accs.std(ddof=1)) if len(accs) > 1 else 0.0,
            "runs": runs,
        })

    print(f"{'method':28s} {'mean dev acc':>12s} {'std':>8s}  seeds={args.seeds}")
    for row in summary:
        print(f"{row['label']:28s} {row['mean_dev_accuracy']:12.4f} "
              f"{row['std_dev_accuracy']:8.4f}")
        if row["method"] == METHOD_ATTENDOUT:
            finals = [r.get("final_drop_prob") for r in row["runs"]
                      if r.get("final_drop_prob")]
            if finals:
                mean_final = np.mean(np.array(finals), axis=0)
                print("  final per-layer drop probability: "
                      + ", ".join(f"layer {i}: {p:.3f}" for i, p in enumerate(mean_final)))
    (out / "summary.json").write_text(_strict_json(summary))
    print(f"summary written to {out / 'summary.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attendout",
        description="learned attention-dropout training harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training job")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_check = sub.add_parser("gradcheck", help="run verification suites")
    p_check.add_argument("--config", default=None)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    p_check.set_defaults(func=cmd_gradcheck)

    p_replay = sub.add_parser("replay-schedule",
                              help="train under a schedule file")
    p_replay.add_argument("--schedule", required=True)
    p_replay.add_argument("--config", required=True)
    p_replay.add_argument("--out", default=None)
    p_replay.add_argument("--seed", type=int, default=None)
    p_replay.set_defaults(func=cmd_replay_schedule)

    p_cmp = sub.add_parser("compare", help="fair method comparison")
    p_cmp.add_argument("configs", nargs="+")
    p_cmp.add_argument("--seeds", type=int, default=1)
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractViolation, DivergenceError, ShapeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
