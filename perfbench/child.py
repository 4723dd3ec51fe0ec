"""One benchmark job in a fresh process.

    python3 child.py env --src SRC --report FILE
        import the package (which also fills the bytecode cache) and write
        the environment stamp.
    python3 child.py setup --src SRC --config INI --report FILE
        time the set-up a training job does: package import, config
        parsing, dataset generation and split, model initialisation.
    python3 child.py train --src SRC --config INI --out DIR --report FILE [--trace FILE]
        run `attendout train` in process and time it; with --trace, wrap
        the program's public functions and write the recorded spans.

The report is a JSON file; the exit code is that of `attendout train`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np

_AFTER_NUMPY = time.perf_counter()


def _environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _setup(config_text: str) -> float:
    """Seconds from just after `import numpy` to a state ready to train."""
    from attendout import config, models, tasks

    cfg = config.parse_config_text(config_text)
    full = tasks.gen_majority_token(cfg.data_n, cfg.seq_len, cfg.vocab, cfg.seed)
    tasks.split(full, (cfg.train_fraction, cfg.dev_fraction, cfg.test_fraction), cfg.seed)
    mcfg = models.ModelConfig(
        vocab_size=cfg.vocab, max_len=cfg.seq_len, num_layers=cfg.layers,
        d_model=cfg.d_model, d_ff=cfg.d_ff, num_heads=cfg.heads,
        num_classes=full.num_classes,
    )
    models.init_task_model(mcfg, cfg.seed)
    if cfg.method == config.METHOD_ATTENDOUT:
        models.init_generator(models.GeneratorConfig(cfg.vocab, cfg.gnet_dim, cfg.tau), cfg.seed)
    return time.perf_counter() - _AFTER_NUMPY


def _train(args) -> tuple[int, dict]:
    from attendout import cli

    main = cli.main
    recorder = restore = None
    missing = set()
    if args.trace:
        import spans

        recorder = spans.Recorder(run_id=os.path.basename(args.out))
        restore, missing = spans.install(recorder)
        main = recorder.wrap(spans.CLI_MAIN, main)
    t0 = time.perf_counter()
    try:
        code = main(["train", "--config", args.config, "--out", args.out])
    finally:
        elapsed = time.perf_counter() - t0
        if restore is not None:
            restore()
    if recorder is not None:
        recorder.dump(args.trace, missing)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return code, {"train_s": elapsed, "peak_rss_mb": peak_kib / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("env", "setup", "train"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    code = 0
    if args.mode == "env":
        import attendout  # noqa: F401  (fills the bytecode cache)

        report = _environment()
    elif args.mode == "setup":
        with open(args.config, encoding="utf-8") as fh:
            report = {"setup_s": _setup(fh.read())}
    else:
        code, report = _train(args)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
