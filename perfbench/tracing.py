"""Span tracing from outside the package, and the per-layer metrics.

``Tracer.install`` replaces the public functions the CLI calls into each
module with shims that record one span per call: name, start, end, parent
span and run id.  Spans stay in memory and are written out once, by
``Tracer.write``, after the last traced command.  ``uninstall`` puts the
original functions back, so untraced commands run the package untouched.

Where a shim goes follows how the package looks names up:

- ``Linear``, the norms, attention and the time tokenizer set
  ``__call__ = forward``, so ``__call__`` is patched, not ``forward``;
- ``nn`` imports ``matmul`` by name, so it is patched in ``nn`` as well as
  in ``tensor`` (where ``Tensor.__matmul__`` finds it);
- ``_Conv1d`` imports ``tensor.conv1d`` at call time, so ``tensor`` is the
  place to patch it;
- ``cmd_impute`` and the benchmark command's diffusion adapter both resolve
  ``impute`` through ``tabdiffuse.cli``, as do the data, checkpoint,
  training, bench and baseline entry points the commands use.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _denoiser_info(self, x, t, training=False, rng=None):
    return int(np.atleast_1d(t)[0]), bool(training)


def _adamw_info(self):
    grads = [p.grad is not None for _, p in self.params.items()]
    return sum(grads), len(grads)


# (module, attribute path, span name, optional info(*args) recorded with the span)
SHIMS = (
    ("tabdiffuse.cli", "load_csv", "data.load_csv", None),
    ("tabdiffuse.cli", "write_csv", "data.write_csv", None),
    ("tabdiffuse.cli", "gen_mcar_mask", "data.mask", None),
    ("tabdiffuse.cli", "gen_mar_mask", "data.mask", None),
    ("tabdiffuse.data", "gen_mcar_mask", "data.mask", None),
    ("tabdiffuse.data", "gen_mar_mask", "data.mask", None),
    ("tabdiffuse.cli", "load_checkpoint", "checkpoint.load", None),
    ("tabdiffuse.cli", "save_checkpoint", "checkpoint.save", None),
    ("tabdiffuse.cli", "train", "training.train", None),
    ("tabdiffuse.cli", "impute", "sampling.impute", None),
    ("tabdiffuse.sampling", "harmonize_jump", "sampling.retrace", None),
    ("tabdiffuse.cli", "ensemble_eval", "bench.cell", None),
    ("tabdiffuse.cli", "baseline_impute", "baselines.impute", None),
    ("tabdiffuse.bench", "mse_missing", "metrics.score", None),
    ("tabdiffuse.bench", "pearson_missing", "metrics.score", None),
    ("tabdiffuse.denoisers", "Denoiser.__call__", "denoisers.forward", _denoiser_info),
    ("tabdiffuse.nn", "Linear.__call__", "nn.linear", None),
    ("tabdiffuse.nn", "MultiHeadSelfAttention.__call__", "nn.attention", None),
    ("tabdiffuse.nn", "LayerNorm.__call__", "nn.layernorm", None),
    ("tabdiffuse.nn", "GroupNorm.__call__", "nn.groupnorm", None),
    ("tabdiffuse.nn", "TimeStepTokenizer.__call__", "nn.tokenizer", None),
    ("tabdiffuse.nn", "matmul", "tensor.matmul", None),
    ("tabdiffuse.tensor", "matmul", "tensor.matmul", None),
    ("tabdiffuse.tensor", "conv1d", "tensor.conv1d", None),
    ("tabdiffuse.tensor", "Tensor.backward", "tensor.backward", None),
    ("tabdiffuse.optim", "AdamW.step", "optim.adamw_step", _adamw_info),
    ("tabdiffuse.rng", "Rng.normal", "rng.normal", None),
)

NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    """Collects spans in memory through shims around package functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self.missing: list[str] = []  # shim targets the package no longer has
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def shim(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id,
                   info(*args, **kwargs) if info is not None else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        shim.__wrapped__ = fn
        return shim

    def install(self) -> None:
        self.missing = []
        for module_name, path, name, info in SHIMS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(name, original, info))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def call(self, run_id: str, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of run ``run_id``; returns
        (result, index range of the run's spans)."""
        self.run_id = run_id
        first = len(self.spans)
        result = self.wrap(name, fn)(*args)
        return result, range(first, len(self.spans))

    def write(self, path: Path) -> None:
        """Write every span, one JSON object a line, times in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


# -- per-layer metrics ----------------------------------------------------------


class RunSummary:
    """Counts, totals and per-call durations of one traced command."""

    def __init__(self, spans: list[list], ids: range):
        dur = {i: spans[i][END] - spans[i][START] for i in ids}
        child = defaultdict(float)
        for i in ids:
            if spans[i][PARENT] >= 0:
                child[spans[i][PARENT]] += dur[i]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durs: dict[str, list[float]] = defaultdict(list)
        for i in ids:
            name = spans[i][NAME]
            self.calls[name] += 1
            self.total[name] += dur[i]
            self.self_time[name] += dur[i] - child[i]
            self.durs[name].append(dur[i])
        self.n_spans = len(ids)
        root = ids[0]
        self.command = dur[root]
        self._sampling(spans, ids)
        self._training(spans, ids, dur)

    def _sampling(self, spans, ids) -> None:
        """Network evaluations under the sampler, split into first visits of
        a level and retrace re-evaluations of a level already visited."""
        self.denoise_steps = self.retrace_evals = 0
        state: dict[int, list] = {}  # impute span -> [seen levels, last level, jumped]
        for i in ids:
            name, parent = spans[i][NAME], spans[i][PARENT]
            if parent < 0 or spans[parent][NAME] != "sampling.impute":
                continue
            seen, last, jumped = state.setdefault(parent, [set(), math.inf, False])
            if name == "sampling.retrace":
                state[parent][2] = True
            elif name == "denoisers.forward":
                level = spans[i][INFO][0]
                if level > last and not jumped:  # the next inference starts at the top
                    seen.clear()
                self.denoise_steps += 1
                self.retrace_evals += level in seen
                seen.add(level)
                state[parent][1:] = [level, False]

    def _training(self, spans, ids, dur) -> None:
        """Per-step times between AdamW updates inside ``train``, the
        parameter-update ratio, and forward+backward time."""
        self.step_durs: list[float] = []
        self.update_ratios: list[float] = []
        self.fwd_bwd = 0.0
        mark = None
        for i in ids:
            name = spans[i][NAME]
            if name == "training.train":
                mark = spans[i][START]
            elif name == "optim.adamw_step":
                n_grad, n_all = spans[i][INFO]
                self.update_ratios.append(n_grad / n_all if n_all else 0.0)
                if mark is not None:
                    self.step_durs.append(spans[i][END] - mark)
                    mark = spans[i][END]
            elif name == "tensor.backward" or (
                name == "denoisers.forward" and spans[i][INFO][1]
            ):
                self.fwd_bwd += dur[i]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; below 20 samples there is none and p50 stands in."""
    n = len(samples)
    if n == 0:
        return 50.0, 0.0
    pct = max(50.0, math.floor(100.0 * (1.0 - 10.0 / n))) if n >= 20 else 50.0
    return pct, float(np.percentile(samples, pct))


def distribution(name: str, samples: list[float], unit: str, scale: float) -> dict:
    """p50, tail value, tail percentile and sample count of one timing."""
    pct, value = tail(samples)
    return {
        f"{name}_p50": (float(np.median(samples)) * scale if samples else 0.0, unit),
        f"{name}_tail": (value * scale, unit),
        f"{name}_tail_pct": (pct, "pct"),
        f"{name}_n": (len(samples), "count"),
    }


def layer_metrics(runs: list[RunSummary]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced commands of one run, plus the
    problems found: every count must repeat exactly across commands."""
    first = runs[0]

    def med(fn) -> float:
        return float(np.median([fn(r) for r in runs]))

    def pooled(fn) -> list[float]:
        return [x for r in runs for x in fn(r)]

    counts = {
        "trace.spans": lambda r: r.n_spans,
        "denoisers.forward_calls": lambda r: r.calls["denoisers.forward"],
        "nn.linear.calls": lambda r: r.calls["nn.linear"],
        "nn.attention.calls": lambda r: r.calls["nn.attention"],
        "nn.layernorm.calls": lambda r: r.calls["nn.layernorm"],
        "nn.groupnorm.calls": lambda r: r.calls["nn.groupnorm"],
        "nn.tokenizer.calls": lambda r: r.calls["nn.tokenizer"],
        "tensor.matmul_calls": lambda r: r.calls["tensor.matmul"],
        "tensor.conv1d_calls": lambda r: r.calls["tensor.conv1d"],
        "tensor.backward_calls": lambda r: r.calls["tensor.backward"],
        "training.steps": lambda r: r.calls["optim.adamw_step"],
        "rng.normal_calls": lambda r: r.calls["rng.normal"],
        "sampling.denoise_steps": lambda r: r.denoise_steps,
        "sampling.retrace_steps": lambda r: r.calls["sampling.retrace"],
        "sampling.retrace_evals": lambda r: r.retrace_evals,
        "bench.cells": lambda r: r.calls["bench.cell"],
        "baselines.impute_calls": lambda r: r.calls["baselines.impute"],
        "metrics.score_calls": lambda r: r.calls["metrics.score"],
    }
    problems = [
        f"{name} differs between traced commands: {[fn(r) for r in runs]}"
        for name, fn in counts.items() if len({fn(r) for r in runs}) != 1
    ]
    out = {name: (fn(first), "count") for name, fn in counts.items()}

    ms = 1e3
    totals = {
        "cli.self_ms": lambda r: r.self_time["cli.main"],
        "nn.linear.self_ms": lambda r: r.self_time["nn.linear"],
        "nn.attention.self_ms": lambda r: r.self_time["nn.attention"],
        "nn.layernorm.self_ms": lambda r: r.self_time["nn.layernorm"],
        "nn.groupnorm.self_ms": lambda r: r.self_time["nn.groupnorm"],
        "nn.tokenizer.self_ms": lambda r: r.self_time["nn.tokenizer"],
        "tensor.matmul_ms": lambda r: r.total["tensor.matmul"],
        "tensor.conv1d_ms": lambda r: r.total["tensor.conv1d"],
        "rng.normal_ms": lambda r: r.total["rng.normal"],
        "baselines.impute_ms": lambda r: r.total["baselines.impute"],
        "metrics.score_ms": lambda r: r.total["metrics.score"],
        "checkpoint.load_ms": lambda r: r.total["checkpoint.load"],
        "checkpoint.save_ms": lambda r: r.total["checkpoint.save"],
        "data.load_csv_ms": lambda r: r.total["data.load_csv"],
        "data.write_csv_ms": lambda r: r.total["data.write_csv"],
        "trace.command_ms": lambda r: r.command,
    }
    out.update({name: (med(fn) * ms, "ms") for name, fn in totals.items()})

    shares = {
        "denoisers.forward_share": lambda r: r.total["denoisers.forward"] / r.command,
        "rng.normal_share": lambda r: r.total["rng.normal"] / r.command,
        "training.fwd_bwd_share": lambda r: r.fwd_bwd / r.command,
    }
    out.update({name: (med(fn), "ratio") for name, fn in shares.items()})

    steps = first.denoise_steps + first.calls["sampling.retrace"]
    out["sampling.retrace_ratio"] = (
        first.retrace_evals / first.denoise_steps if first.denoise_steps else 0.0, "ratio")
    out["sampling.self_ms_per_step"] = (
        med(lambda r: r.self_time["sampling.impute"] + r.self_time["sampling.retrace"])
        * ms / steps if steps else 0.0, "ms")
    ratios = pooled(lambda r: r.update_ratios)
    out["optim.params_updated_ratio"] = (min(ratios) if ratios else 0.0, "ratio")

    out.update(distribution("denoisers.forward_ms",
                            pooled(lambda r: r.durs["denoisers.forward"]), "ms", ms))
    out.update(distribution("tensor.backward_ms",
                            pooled(lambda r: r.durs["tensor.backward"]), "ms", ms))
    out.update(distribution("optim.adamw_step_ms",
                            pooled(lambda r: r.durs["optim.adamw_step"]), "ms", ms))
    out.update(distribution("training.step_ms", pooled(lambda r: r.step_durs), "ms", ms))
    out.update(distribution("bench.cell_s", pooled(lambda r: r.durs["bench.cell"]), "s", 1.0))
    return out, problems
