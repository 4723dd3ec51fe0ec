"""Outside-in span recorder for the traced benchmark run.

Public functions of the program are wrapped where their callers look them
up (a module global such as `trainer.task_forward`, a class attribute such
as `attention.MaskMatrix.from_drop_bits`), so the program itself is not
changed. Every call becomes a span (name, start, end, parent span) kept in
memory and written once when the job ends, in one file per job that also
carries the job's run id; the parent process turns the span files into
per-layer metrics.

Spans are named after the module that defines the function, whichever
module the call was looked up in. Self time is a span's duration minus the
part of it covered by its child spans. `ptree.iter_arrays` is recursive
and deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# Per-call percentiles are reported only from this many samples up, so that
# at least ten samples lie beyond the 99th percentile.
MIN_PERCENTILE_SAMPLES = 1000


def _mask_mode(counters, name, args, kwargs, result):
    mask = kwargs.get("mask", args[2] if len(args) > 2 else None)
    mode = "none" if mask is None else mask.mode.value
    counters[f"{name}.calls.{mode}"] += 1


def _escalated(counters, name, args, kwargs, result):
    if result.mode.value == "all_dropped":
        counters[f"{name}.escalated"] += 1


def _units(counters, name, args, kwargs, result):
    counters[f"{name}.units"] += args[0].size


def _decisions(counters, name, args, kwargs, result):
    counters[f"{name}.decisions"] += len(args[1])


def _samples(counters, name, args, kwargs, result):
    counters[f"{name}.samples"] += len(args[1])


# (span name, module where callers look the name up, attribute path there,
#  optional counter hook run on each call's arguments and result)
TARGETS = [
    ("ptree.zeros_like", "attendout.ptree", "zeros_like", None),
    ("ptree.add_scaled", "attendout.ptree", "add_scaled", None),
    ("ptree.copy_tree", "attendout.ptree", "copy_tree", None),
    ("ptree.first_nonfinite", "attendout.ptree", "first_nonfinite", None),
    ("ptree.trees_equal", "attendout.ptree", "trees_equal", None),
    ("models.task_forward", "attendout.trainer", "task_forward", None),
    ("models.task_backward", "attendout.trainer", "task_backward", None),
    ("models.gnet_sample_masks", "attendout.trainer", "gnet_sample_masks", None),
    ("models.gnet_logprob_backward", "attendout.policygrad", "gnet_logprob_backward", None),
    ("models.init_task_model", "attendout.trainer", "init_task_model", None),
    ("models.init_generator", "attendout.trainer", "init_generator", None),
    ("models.save_checkpoint", "attendout.cli", "save_checkpoint", None),
    ("attention.attn_forward", "attendout.models", "attn_forward", _mask_mode),
    ("attention.attn_backward", "attendout.models", "attn_backward", None),
    ("attention.MaskMatrix.from_drop_bits", "attendout.attention",
     "MaskMatrix.from_drop_bits", _escalated),
    ("numkernel.gelu", "attendout.models", "gelu", None),
    ("numkernel.gelu_grad", "attendout.models", "gelu_grad", None),
    ("numkernel.softmax_rows", "attendout.attention", "softmax_rows", None),
    ("numkernel.softmax_rows", "attendout.numkernel", "softmax_rows", None),
    ("numkernel.cross_entropy_logits", "attendout.trainer", "cross_entropy_logits", None),
    ("numkernel.gumbel_binary_sample_array", "attendout.models",
     "gumbel_binary_sample_array", _units),
    ("numkernel.bernoulli_array", "attendout.regularizers", "bernoulli_array", None),
    ("policygrad.reinforce_update", "attendout.trainer", "reinforce_update", _decisions),
    ("regularizers.vanilla_attention_mask", "attendout.trainer",
     "vanilla_attention_mask", None),
    ("trainer.optimizer_step", "attendout.trainer", "optimizer_step", None),
    ("trainer.evaluate", "attendout.trainer", "evaluate", _samples),
    ("trainer.sync_models", "attendout.trainer", "sync_models", None),
    ("trainer.dropout_step", "attendout.trainer", "dropout_step", None),
    ("trainer.BatchStream.next", "attendout.trainer", "BatchStream.next", None),
    ("trainer.train", "attendout.cli", "train", None),
    ("tasks.gen_majority_token", "attendout.tasks", "gen_majority_token", None),
    ("tasks.split", "attendout.tasks", "split", None),
    ("config.parse_config_text", "attendout.config", "parse_config_text", None),
]

# Span the benchmark opens itself around `cli.main`.
CLI_MAIN = "cli.main"


class Recorder:
    """Spans of one job, in call order, held in memory until `dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook=None):
        """Return fn recording one span per call; results pass unchanged."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self.counters, name, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path, missing=()) -> None:
        payload = {
            "run_id": self.run_id, "names": self.names, "name": self.name,
            "start": self.start, "end": self.end, "parent": self.parent,
            "counters": dict(self.counters), "missing": sorted(missing),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _resolve(owner, path: str):
    """(object holding the last attribute, attribute name) for a dotted path."""
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder, targets=TARGETS):
    """Wrap every target that exists; returns (restore callable, names of
    spans none of whose targets exist any more)."""
    saved = []
    found = set()
    for name, module_name, path, hook in targets:
        try:
            owner, attr = _resolve(importlib.import_module(module_name), path)
        except (ImportError, AttributeError):
            continue
        raw = vars(owner).get(attr)
        if raw is None:
            continue
        if isinstance(raw, staticmethod):
            patched = staticmethod(recorder.wrap(name, raw.__func__, hook))
        else:
            patched = recorder.wrap(name, raw, hook)
        saved.append((owner, attr, raw))
        setattr(owner, attr, patched)
        found.add(name)

    def restore():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    missing = {name for name, *_ in targets} - found
    return restore, missing


# ---------------------------------------------------------------------------
# Aggregation (parent process)
# ---------------------------------------------------------------------------


def self_times(start, end, parent) -> list[int]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s0, e0) in enumerate(zip(start, end)):
        covered = 0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            s, e = max(start[c], s0), min(end[c], e0)
            if e <= s:
                continue
            if cur_e is not None and s <= cur_e:
                cur_e = max(cur_e, e)
                continue
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(e0 - s0 - covered)
    return out


def summarize(trace: dict) -> dict:
    """Per-span-name totals of one job (calls, total_ns, self_ns, and the
    per-call durations of PERCENTILE_SPANS), plus the job's counters."""
    self_ns = self_times(trace["start"], trace["end"], trace["parent"])
    spans = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "durations": []}
             for name in trace["names"]}
    for nid, s, e, own in zip(trace["name"], trace["start"], trace["end"], self_ns):
        name = trace["names"][nid]
        entry = spans[name]
        entry["calls"] += 1
        entry["total_ns"] += e - s
        entry["self_ns"] += own
        if name in PERCENTILE_SPANS:
            entry["durations"].append(e - s)
    return {"spans": spans, "counters": trace["counters"],
            "missing": set(trace["missing"]), "count": len(self_ns)}


def _percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an ascending list, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def job_metrics(summary: dict) -> dict:
    """Every per-layer metric of one traced job, by name; None where the
    span it reads no longer exists in the program."""
    spans, counters, missing = summary["spans"], summary["counters"], summary["missing"]
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "durations": []}

    def span(name):
        return None if name in missing else spans.get(name, empty)

    def stat(name, key):
        s = span(name)
        if s is None:
            return None
        return s["calls"] if key == "calls" else s[key + "_ns"] / 1e6

    def counter(name, key):
        return None if name in missing else counters.get(f"{name}.{key}", 0)

    out = {}
    for name, stats in PER_LAYER_SPANS.items():
        for key in stats:
            field = "total" if key in ("ms", "total_ms") else key.replace("_ms", "")
            out[f"{name}.{key}"] = stat(name, field)
    attn = "attention.attn_forward"
    for mode in ("none", "scores", "weights", "all_dropped"):
        out[f"{attn}.calls.{mode}"] = counter(attn, f"calls.{mode}")
    fdb = "attention.MaskMatrix.from_drop_bits"
    out[f"{fdb}.calls"] = stat(fdb, "calls")
    escalated = counter(fdb, "escalated")
    out["attention.escalation_ratio"] = (
        None if escalated is None else _ratio(escalated, out[f"{fdb}.calls"]))
    gumbel = "numkernel.gumbel_binary_sample_array"
    out[f"{gumbel}.units"] = counter(gumbel, "units")
    rf = "policygrad.reinforce_update"
    out[f"{rf}.decisions"] = counter(rf, "decisions")
    backward_calls = stat("models.gnet_logprob_backward", "calls")
    out["policygrad.backward_ratio"] = (
        None if None in (backward_calls, out[f"{rf}.decisions"])
        else _ratio(backward_calls, out[f"{rf}.decisions"]))
    ev = "trainer.evaluate"
    out[f"{ev}.samples"] = counter(ev, "samples")
    total = stat(ev, "total")
    out[f"{ev}.ms_per_sample"] = None if total is None else _ratio(total, out[f"{ev}.samples"])
    sync = "trainer.sync_models"
    calls, total = stat(sync, "calls"), stat(sync, "total")
    out[f"{sync}.calls"] = calls
    out[f"{sync}.ms_per_call"] = None if calls is None else _ratio(total, calls)
    main, train = stat(CLI_MAIN, "total"), stat("trainer.train", "total")
    out["cli.artifacts_ms"] = None if None in (main, train) else main - train
    out["trace.spans"] = summary["count"]
    return out


def pooled_percentiles(summaries: list[dict]) -> dict:
    """Per-call p50 (and p99 from MIN_PERCENTILE_SAMPLES calls up) over the
    calls of every traced job of the run; 0 for a span never called, as for
    its other times."""
    out = {}
    for name, keys in PERCENTILE_SPANS.items():
        if any(name in s["missing"] for s in summaries):
            out.update({f"{name}.{k}": None for k in keys})
            continue
        durations = sorted(d for s in summaries
                           for d in s["spans"].get(name, {"durations": []})["durations"])
        for key in keys:
            if key == "samples":
                out[f"{name}.samples"] = len(durations)
                continue
            if not durations:
                out[f"{name}.{key}"] = 0.0
                continue
            q = 50.0 if key == "ms_p50" else 99.0
            enough = q == 50.0 or len(durations) >= MIN_PERCENTILE_SAMPLES
            out[f"{name}.{key}"] = _percentile(durations, q) / 1e6 if enough else None
    return out


# Stats read straight off one span's totals. "ms" and "total_ms" are the
# span's total duration, "self_ms" excludes time in child spans.
PER_LAYER_SPANS = {
    "ptree.zeros_like": ("calls", "self_ms"),
    "ptree.add_scaled": ("calls", "self_ms"),
    "ptree.copy_tree": ("self_ms",),
    "ptree.first_nonfinite": ("self_ms",),
    "ptree.trees_equal": ("self_ms",),
    "models.task_forward": ("calls", "self_ms"),
    "models.task_backward": ("calls", "self_ms"),
    "models.gnet_sample_masks": ("calls", "self_ms"),
    "models.gnet_logprob_backward": ("calls", "self_ms"),
    "attention.attn_forward": ("calls", "self_ms"),
    "attention.attn_backward": ("calls", "self_ms"),
    "numkernel.gelu": ("self_ms",),
    "numkernel.gelu_grad": ("self_ms",),
    "numkernel.softmax_rows": ("calls", "self_ms"),
    "numkernel.cross_entropy_logits": ("self_ms",),
    "numkernel.gumbel_binary_sample_array": ("self_ms",),
    "numkernel.bernoulli_array": ("self_ms",),
    "policygrad.reinforce_update": ("calls", "total_ms"),
    "regularizers.vanilla_attention_mask": ("calls", "total_ms"),
    "trainer.optimizer_step": ("calls", "self_ms"),
    "trainer.dropout_step": ("calls",),
    "trainer.BatchStream.next": ("total_ms",),
    "trainer.train": ("self_ms",),
    "tasks.gen_majority_token": ("ms",),
    "tasks.split": ("ms",),
    "config.parse_config_text": ("ms",),
    "models.init_task_model": ("ms",),
    "models.init_generator": ("ms",),
    "models.save_checkpoint": ("total_ms",),
}

PERCENTILE_SPANS = {
    "models.task_forward": ("ms_p50", "ms_p99", "samples"),
    "models.task_backward": ("ms_p50", "ms_p99", "samples"),
    "trainer.dropout_step": ("ms_p50",),
}
