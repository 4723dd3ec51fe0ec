"""Benchmark of `attendout train`, run from the root of a source checkout:

    python3 perfbench/run.py --workload plain --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload plain game wide --seed 1 --seconds 36 --trace 0

Closed loop: one training job at a time, each in a fresh process with the
BLAS thread count fixed to 1, repeated until --seconds are spent. The INI a
job runs is a function of (workload, seed) only (see workloads.py). Set-up
is timed in fresh processes of its own, one before each job and at least
SETUP_REPEATS per run.

Every job's outputs are checked (exit code, dev accuracy in [0, 1], step and
row counts, the game's structural flags, identical metrics.jsonl across all
jobs of the run); a job failing any check is counted as failed and left out
of the timings.

With --trace 0 the result holds the end-to-end metrics, medians over jobs.
With --trace 1 untraced and traced jobs alternate, and the result holds the
per-layer metrics of the traced jobs (spans.py) plus the tracing overhead.
Metric names and units are those of BENCHMARK.json at the checkout root.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 75
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def _run_child(mode: str, report: Path, *options: str):
    """Run child.py to completion; returns (exit code, report or None, stderr)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--src", str(SRC),
           "--report", str(report), *options]
    try:
        proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {JOB_TIMEOUT_S} s"
    try:
        data = json.loads(report.read_text())
    except (OSError, ValueError):
        data = None
    return proc.returncode, data, proc.stderr


def _check_outputs(name: str, out: Path):
    """Problems found in one job's artifacts, its result.json, and the
    digest of its metrics.jsonl."""
    w = WORKLOADS[name]
    try:
        result = json.loads((out / "result.json").read_text())
        rows = (out / "metrics.jsonl").read_bytes()
    except (OSError, ValueError) as exc:
        return [f"unreadable artifacts: {exc}"], {}, None
    problems = []
    acc = result.get("dev_accuracy")
    if not isinstance(acc, (int, float)) or not math.isfinite(acc) or not 0.0 <= acc <= 1.0:
        problems.append(f"dev_accuracy {acc!r} is not a finite fraction")
    if result.get("total_steps") != w.total_steps:
        problems.append(f"total_steps {result.get('total_steps')} != {w.total_steps}")
    n_rows = rows.count(b"\n")
    if n_rows != w.total_steps:
        problems.append(f"metrics.jsonl has {n_rows} rows, want {w.total_steps}")
    if w.dropout_step is not None:
        for flag in ("boundary_identical", "cache_empty"):
            if result.get(flag) is not True:
                problems.append(f"{flag} is {result.get(flag)!r}")
        if result.get("g_updates") != w.total_steps // w.dropout_step:
            problems.append(f"g_updates {result.get('g_updates')} != "
                            f"{w.total_steps // w.dropout_step}")
    return problems, result, hashlib.sha256(rows).hexdigest()


def _train_job(name: str, work: Path, index: int, traced: bool) -> dict:
    job_dir = work / f"job{index}"
    out = job_dir / "out"
    job_dir.mkdir()
    options = ["--config", str(work / "job.ini"), "--out", str(out)]
    if traced:
        options += ["--trace", str(job_dir / "spans.json")]
    code, report, stderr = _run_child("train", job_dir / "report.json", *options)
    job = {"traced": traced, "problems": [], "digest": None, "summary": None}
    if code != 0 or report is None:
        job["problems"].append(f"exit code {code}: {stderr.strip()[-400:]}")
    else:
        job["problems"], result, job["digest"] = _check_outputs(name, out)
        job["steps_per_s"] = WORKLOADS[name].total_steps / report["train_s"]
        job["peak_rss_mb"] = report["peak_rss_mb"]
        job["dev_accuracy"] = result.get("dev_accuracy")
        if traced:
            with open(job_dir / "spans.json", encoding="utf-8") as fh:
                job["summary"] = spans.summarize(json.load(fh))
    shutil.rmtree(job_dir)
    return job


def _setup_sample(work: Path, index: int):
    code, report, stderr = _run_child("setup", work / f"setup{index}.json",
                                      "--config", str(work / "job.ini"))
    if code == 0 and report:
        return report["setup_s"]
    print(f"setup {index} failed: {stderr.strip()[-400:]}", file=sys.stderr)
    return None


def _run(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Set-up samples and training jobs of one run. Set-up is timed before
    every round of jobs, so that both sample the whole run; short runs are
    topped up to SETUP_REPEATS set-up samples."""
    (work / "job.ini").write_text(config_text(name, seed))
    pattern = (False, True) if trace else (False,)
    setups, jobs = [], []
    t0 = time.perf_counter()
    while True:
        setups.append(_setup_sample(work, len(setups)))
        for traced in pattern:
            jobs.append(_train_job(name, work, len(jobs), traced))
        elapsed = time.perf_counter() - t0
        if elapsed * (1 + len(pattern) / len(jobs)) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup_sample(work, len(setups)))

    digests = Counter(j["digest"] for j in jobs if j["digest"] is not None)
    if digests:
        reference = digests.most_common(1)[0][0]
        for j in jobs:
            if j["digest"] is not None and j["digest"] != reference:
                j["problems"].append("metrics.jsonl differs from the other jobs of this seed")
    for i, j in enumerate(jobs):
        status = "; ".join(j["problems"]) or "ok"
        rate = j.get("steps_per_s")
        print(f"job {i} {'traced' if j['traced'] else 'untraced'} "
              f"steps/s={rate if rate is None else round(rate, 3)} "
              f"metrics.jsonl sha256={(j['digest'] or '-')[:16]} {status}", file=sys.stderr)
    return setups, jobs


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _attempted_failed(setups, jobs) -> tuple[int, int]:
    failed = setups.count(None) + sum(1 for j in jobs if j["problems"])
    return len(setups) + len(jobs), failed


def _end_to_end(setups, jobs) -> dict:
    ok = [j for j in jobs if not j["problems"]]
    attempted, failed = _attempted_failed(setups, jobs)
    return {
        "steps_per_s": _median(j["steps_per_s"] for j in ok),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(j["peak_rss_mb"] for j in ok),
        "dev_accuracy": _median(j["dev_accuracy"] for j in ok),
        "success_rate": (attempted - failed) / attempted,
    }


def _per_layer(jobs) -> dict:
    ok = [j for j in jobs if not j["problems"]]
    traced = [j for j in ok if j["traced"]]
    untraced = [j for j in ok if not j["traced"]]
    values = {}
    if traced:
        per_job = [spans.job_metrics(j["summary"]) for j in traced]
        for key in per_job[0]:
            column = [m[key] for m in per_job]
            values[key] = None if None in column else statistics.median_low(column)
        values.update(spans.pooled_percentiles([j["summary"] for j in traced]))
    plain_rate = _median(j["steps_per_s"] for j in untraced)
    traced_rate = _median(j["steps_per_s"] for j in traced)
    if plain_rate is not None and traced_rate is not None:
        values["trace.steps_per_s_gap"] = plain_rate - traced_rate
        values["trace.overhead_fraction"] = (plain_rate - traced_rate) / plain_rate
    return values


def _environment(work: Path) -> dict:
    code, env, stderr = _run_child("env", work / "env.json")
    if code != 0 or env is None:
        raise RuntimeError(f"cannot import the package from {SRC}: {stderr.strip()[-400:]}")
    digest = hashlib.sha256()
    for path in sorted((SRC / "attendout").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env.update(git_commit=_git_commit(), src_sha256=digest.hexdigest())
    return env


def _git_commit():
    """The checked-out commit when the checkout is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _report(name: str, seed: int, spec: list, values: dict, setups, jobs) -> dict:
    attempted, failed = _attempted_failed(setups, jobs)
    metrics = {}
    print(f"workload={name} seed={seed} jobs={len(jobs)} setups={len(setups)} "
          f"attempted={attempted} failed={failed}")
    for entry in spec:
        value = values.get(entry["name"])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if value is None:
            metrics[entry["name"]]["missing"] = True
        print(f"  {entry['name']:48s} {'missing' if value is None else f'{value:.6g}':>12s} "
              f"{entry['unit']}")
    if "success_rate" in values:
        print(f"  {'error_rate':48s} {failed / attempted:12.6g} fraction")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "attendout" / "cli.py").is_file():
        print(f"error: no attendout sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer" if args.trace else "end_to_end"]

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        print(json.dumps({"environment": _environment(work)}))
        results = []
        for name in args.workload:
            run_dir = work / name
            run_dir.mkdir()
            setups, jobs = _run(name, args.seed, args.seconds, bool(args.trace), run_dir)
            values = _per_layer(jobs) if args.trace else _end_to_end(setups, jobs)
            results.append(_report(name, args.seed, spec, values, setups, jobs))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
