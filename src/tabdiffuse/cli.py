"""Command-line interface: train, impute, benchmark, ablate.

A command validates, loads and computes, then returns its reports unwritten;
``write_reports`` stamps each with the package version, the run seed, and the
sha256 of the resolved key = value config text, which it writes beside them.
A failed run writes nothing but ``train``'s checkpoints, and a rerun with the
same inputs reproduces the outputs byte for byte.

Exit codes: 0 success, 2 usage or input error, 3 numeric failure,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import time
import traceback
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BASELINE_KINDS, BaselineError, baseline_impute
from .bench import (
    MaskSpec,
    average_inferences,
    downstream_eval,
    draw_masks,
    ensemble_eval,
    rank_table,
    summarize,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import MinMaxScaler, load_csv, read_mask_csv, split, write_rows
from .denoisers import ARCHITECTURES, DenoiserConfig, build_denoiser
from .parallel import shard_bounds, shard_threads, walks_per_batch
from .rng import derive_seed
from .sampling import MaskedTable, SamplerOptions, build_plan, impute
from .tensor import NumericError
from .training import TrainingConfig, TrainingDiverged, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

_MASK_STREAM = 1  # substream indices of the run seed
_SAMPLE_STREAM = 2

TAU_SWEEP = (10, 25, 50, 100, 250, 500)

# where a run writes does not change what it writes, so these stay out of the stamp
_UNSTAMPED = ("command", "config", "out", "out_dir")


class UsageError(ValueError):
    pass


# -- resolved-config plumbing ---------------------------------------------------


def format_config(section: str, values: dict) -> str:
    lines = [f"[{section}]"]
    for key in sorted(values):
        lines.append(f"{key} = {values[key]}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> dict[str, dict[str, str]]:
    """Parse the flat key = value format with [section] headers."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
            continue
        if "=" not in line or current is None:
            raise UsageError(f"config line {i}: expected 'key = value' inside a section")
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()
    return sections


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def write_reports(args, cfg_text: str, stamp_path: Path, reports) -> None:
    """Write a finished command's reports, each after the three '#' stamp lines,
    then its resolved config text at ``stamp_path``.  A report is a (path, body)
    pair: a (header, rows) body is written as CSV, a str body as plain text."""
    stamp = [f"tabdiffuse-version: {__version__}", f"seed: {args.seed}",
             f"config-sha256: {config_hash(cfg_text)}"]
    for path, body in reports:
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(body, str):
            path.write_text("".join(f"# {line}\n" for line in stamp) + body, encoding="utf-8")
        else:
            write_rows(path, *body, comments=stamp)
        _log(f"[{args.command}] wrote {path}")
    stamp_path.write_text(cfg_text, encoding="utf-8")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def text_table(col_names: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(c)), *(len(r[i]) for r in rows)) for i, c in enumerate(col_names)]
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    out = [line(col_names), line(["-" * w for w in widths])]
    out += [line(r) for r in rows]
    return "\n".join(out) + "\n"


# -- shared argument handling ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as a UsageError, so main() returns EXIT_USAGE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


class _Repeat(argparse.Action):
    """action="append", except that the first use on the command line
    replaces a list set from the config file instead of extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if items is self.default else items) + [values])


def _parse(text: str, form: str, parse=int):
    """``parse(text)``; a malformed value is a usage error that says what the
    option takes (argparse would name the type function instead)."""
    try:
        return parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None


def _ints(text: str) -> tuple[int, ...]:
    return _parse(text, "comma-separated integers such as 16,32",
                  lambda t: tuple(int(v) for v in t.split(",")))


def _count(noun: str):
    """The type of a count option: an int >= 1, checked before any file is written."""

    def count(text: str) -> int:
        value = _parse(text, f"the number of {noun}, an integer >= 1")
        if value < 1:
            raise argparse.ArgumentTypeError(f"the number of {noun} must be >= 1, got {value}")
        return value

    return count


def _seed(text: str) -> int:
    """The type of --seed: an int in [0, 2**64); the streams take seeds mod 2**64."""
    value = _parse(text, "an integer in [0, 2**64)")
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"--seed must lie in [0, 2**64), got {value}")
    return value


def _names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(","))


def _token_separator(action: argparse.Action) -> str | None:
    """How the values of an option given as several tokens are joined in
    config text; None for an option that takes one token."""
    if action.nargs == "+":
        return " "
    if isinstance(action, _Repeat):
        return ";"
    return None


def _config_value(action: argparse.Action, text: str):
    """One config-file value, parsed with the type and choices of its flag."""
    if action.nargs == 0:  # an on/off flag
        if text.lower() not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return action.const if text.lower() == "true" else action.default
    if not text and action.default is None:
        return None
    sep = _token_separator(action)
    values = [p.strip() for p in text.split(sep) if p.strip()] if sep else [text]
    if action.type is not None:
        values = [action.type(v) for v in values]
    for v in values:
        if action.choices is not None and v not in action.choices:
            raise ValueError(f"invalid choice {v!r} (choose from {', '.join(action.choices)})")
    return values if sep else values[0]


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Make the [command] section of the config file the command's defaults,
    so flags given on the command line win when the arguments are parsed again."""
    path = _existing(Path(args.config), "config file")
    sections = parse_config(path.read_text(encoding="utf-8-sig"))
    unknown_sections = set(sections) - set(COMMANDS)
    if unknown_sections:
        raise UsageError(f"unknown config section(s): {sorted(unknown_sections)}")
    sub = parser.command_parsers[args.command]
    flags = {opt[2:]: a for a in sub._actions for opt in a.option_strings
             if opt.startswith("--") and a.dest in vars(args)}
    defaults = {}
    for key, text in sections.get(args.command, {}).items():
        action = flags.get(key.replace("_", "-"))
        if action is None:
            raise UsageError(f"unknown config key [{args.command}] {key}")
        try:
            defaults[action.dest] = _config_value(action, text)
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise UsageError(f"config [{args.command}] {key}: {err}") from None
    sub.set_defaults(**defaults)


def resolved_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    """The command's [section] text: every option except the config file and
    the output location, with unset options written empty."""
    actions = {a.dest: a for a in parser.command_parsers[args.command]._actions}
    values = {}
    for dest, value in vars(args).items():
        if dest in _UNSTAMPED:
            continue
        if value is None:
            value = ""
        elif isinstance(value, (list, tuple)):  # a comma-list type when one token
            value = (_token_separator(actions[dest]) or ",").join(map(str, value))
        values[dest] = value
    return format_config(args.command, values)


def _from_args(cls, args: argparse.Namespace, **renamed):
    """A ``cls`` config from every field the command parsed under the field's
    own name; ``renamed`` gives the fields the command names otherwise or derives."""
    parsed = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**parsed, **renamed)


def _existing(path: Path, what: str) -> Path:
    if not path.exists():
        raise UsageError(f"{what} not found: {path}")
    return path


def _load_model(path: Path, feature_names: tuple[str, ...]):
    """The checkpoint's network, checked against the data's feature count and,
    when the checkpoint stores them, its feature names."""
    denoiser = load_checkpoint(_existing(path, "checkpoint"))[0]
    names = denoiser.feature_names
    expected = denoiser.config.n_features
    if expected != len(feature_names):
        raise UsageError(f"data has {len(feature_names)} features, checkpoint {path} expects "
                         f"{expected}")
    if names is not None and names != feature_names:
        i = next(i for i, (a, b) in enumerate(zip(names, feature_names)) if a != b)
        raise UsageError(f"data feature {i + 1} is {feature_names[i]!r}, checkpoint {path} "
                         f"expects {names[i]!r}")
    return denoiser


# -- train ------------------------------------------------------------------------


def cmd_train(args):
    ds = load_csv(_existing(args.data, "data file"), target_column=args.target)
    scaler = MinMaxScaler().fit(ds.features)
    scaled = scaler.transform(ds.features)

    den_cfg = _from_args(DenoiserConfig, args, n_features=ds.n_features)
    tr_cfg = _from_args(TrainingConfig, args, t_training=args.T)
    out_dir = args.out
    denoiser = build_denoiser(den_cfg, seed=tr_cfg.seed)
    denoiser.scaler, denoiser.feature_names = scaler, ds.feature_names

    def checkpoint(name, meta=None):
        out_dir.mkdir(parents=True, exist_ok=True)  # made by the first checkpoint
        save_checkpoint(out_dir / name, denoiser, meta=meta)
        _log(f"[train] wrote {out_dir / name}")

    def epoch_end(epoch, losses):
        _log(f"[train] epoch {epoch + 1}/{tr_cfg.epochs}: mean loss {losses[-1]:.6f}")
        every = args.checkpoint_every
        if every and (epoch + 1) % every == 0:
            checkpoint(f"epoch_{epoch + 1:04d}.ckpt")

    t0 = time.perf_counter()
    history = train(denoiser, scaled, tr_cfg, on_epoch_end=epoch_end)
    _log(f"[train] {tr_cfg.epochs} epochs in {time.perf_counter() - t0:.2f}s, "
         f"final loss {history[-1]:.6f}")
    checkpoint("checkpoint.ckpt", meta={"seed": tr_cfg.seed})
    losses = (["epoch", "mean_loss"], [[float(e + 1), loss] for e, loss in enumerate(history)])
    return out_dir / "run_config.txt", [(out_dir / "loss.csv", losses)]


# -- impute -----------------------------------------------------------------------


def _make_mask(args, n_rows: int, n_cols: int, seed: int) -> np.ndarray:
    chosen = [x for x in (args.mask, args.mcar, args.mar) if x not in (None, "")]
    if len(chosen) != 1:
        raise UsageError("choose exactly one of --mask / --mcar / --mar")
    if args.mask:
        mask = read_mask_csv(_existing(Path(args.mask), "mask file"))
        if mask.shape != (n_rows, n_cols):
            raise UsageError(f"mask shape {mask.shape} does not match data ({n_rows}, {n_cols})")
        return mask
    if args.mcar is not None:
        spec = MaskSpec("mcar", p_random=args.mcar)
    else:
        spec = MaskSpec("mar", p_col=args.mar)
    return spec.generate(n_rows, n_cols, derive_seed(seed, _MASK_STREAM))


def _impute_walks(denoiser, opts, n_rows, walks):
    """The imputations of ``walks``, an iterable of (MaskedTable, seed) pairs
    over ``n_rows``-row tables, in walk order.  ``walks_per_batch`` walks run
    as one stacked sampler state; ``walks`` is read one batch at a time, so
    only one batch is alive at once.  The batches share one FiLM table, so
    each network time is tokenized once for all of them."""
    walks, films = iter(walks), {}
    k = walks_per_batch(denoiser, n_rows)
    while batch := list(itertools.islice(walks, k)):
        yield from impute(denoiser, batch, opts, films=films)


def cmd_impute(args):
    opts = _from_args(SamplerOptions, args, t_sampling=args.T_sampling)
    ds = load_csv(_existing(args.data, "data file"), target_column=args.target)
    denoiser = _load_model(args.checkpoint, ds.feature_names)
    scaler = denoiser.scaler
    seed = args.seed
    mask = _make_mask(args, ds.n_rows, ds.n_features, seed)

    scaled = scaler.transform(ds.features) if scaler is not None else ds.features
    table = MaskedTable(scaled, mask)
    n = args.n_inferences
    walks = [(table, derive_seed(derive_seed(seed, _SAMPLE_STREAM), i)) for i in range(n)]
    t0 = time.perf_counter()
    out_scaled = average_inferences(_impute_walks(denoiser, opts, ds.n_rows, walks), n)
    elapsed = time.perf_counter() - t0
    plan = build_plan(opts)
    k = walks_per_batch(denoiser, ds.n_rows)
    n_shards = len(shard_bounds(denoiser, ds.n_rows * min(k, n))) - 1
    _log(f"[impute] plan steps: {len(plan) - 1}, inferences: {n}, "
         f"network evaluations: {plan.n_denoise() * -(-n // k)}, wall time: {elapsed:.3f}s, "
         f"walks per batch: {k}, shards: {n_shards}, threads: {shard_threads(n_shards)}")

    out = scaler.inverse_transform(out_scaled) if scaler is not None else out_scaled
    out[mask] = ds.features[mask]  # observations pass through verbatim
    return (args.out.with_name(args.out.name + ".config.txt"),
            [(args.out, (ds.feature_names, (row.tolist() for row in out)))])


# -- benchmark ----------------------------------------------------------------------


def _parse_grid(tokens: list[str], n_features: int) -> list[MaskSpec]:
    specs: list[MaskSpec] = []
    for token in tokens:
        malformed = UsageError(f"grid token {token!r} must look like mcar=10..90 or mar=1..4")
        if "=" not in token:
            raise malformed
        name, _, values = token.partition("=")
        name = name.strip().lower()
        try:
            if ".." in values:
                lo, _, hi = values.partition("..")
                step = 10 if name == "mcar" else 1
                points = list(range(int(lo), int(hi) + 1, step))
            else:
                points = [float(v) for v in values.split(",")]
        except ValueError:
            raise malformed from None
        for p in points:
            if name == "mar" and not float(p).is_integer():
                raise UsageError(f"grid token {token!r}: mar takes a whole number of columns")
            if name == "mcar":
                frac = p / 100.0 if p >= 1 else float(p)
                specs.append(MaskSpec("mcar", p_random=frac))
            elif name == "mar" and int(p) < n_features:
                specs.append(MaskSpec("mar", p_col=int(p)))
            elif name == "mar":
                raise UsageError(f"grid point mar={int(p)} masks all {n_features} feature columns")
            else:
                raise UsageError(f"unknown grid mechanism {name!r}")
    if not specs:
        raise UsageError("empty mask grid")
    _reject_repeats("grid setting", [spec.label for spec in specs])
    return specs


def _reject_repeats(what: str, names) -> None:
    """A setting or method named twice would get two report columns or rows."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise UsageError(f"{what} {name!r} is given more than once")


def _rescale(x, src, dst):
    """``x`` from ``src``'s scaled space into ``dst``'s; None is the raw space."""
    raw = src.inverse_transform(x) if src is not None else x
    return dst.transform(raw) if dst is not None else raw


def _diffusion_impute_fn(denoiser, opts, bench_scaler=None):
    """Adapter: the diffusion imputer over ``ensemble_eval``'s walks, which are in
    the checkpoint's model space, or in ``bench_scaler``'s space when given."""
    ckpt, model_space = denoiser.scaler, bench_scaler is None

    def fn(walks):
        # derive_seed(seed, 0) is the stream earlier versions' one-inference impute drew
        tables = ((MaskedTable(x if model_space else _rescale(x, bench_scaler, ckpt), mask),
                   derive_seed(seed, 0)) for x, mask, seed in walks)
        for out in _impute_walks(denoiser, opts, len(walks[0][0]), tables):
            yield out if model_space else _rescale(out, ckpt, bench_scaler)

    return fn


def cmd_benchmark(args):
    opts = _from_args(SamplerOptions, args, t_sampling=args.T_sampling)
    ds = load_csv(_existing(args.data, "data file"), target_column=args.target)
    if ds.target is not None and not np.all(np.isfinite(ds.target)):
        row = int(np.flatnonzero(~np.isfinite(ds.target))[0]) + 2  # 1-based, after the header
        raise UsageError(f"{args.data}: non-finite target at row {row}, column {args.target!r}")
    seed = args.seed
    train_ds, test_ds = split(ds, fraction=args.split_fraction, seed=seed)
    bench_scaler = MinMaxScaler().fit(train_ds.features)
    train_scaled = bench_scaler.transform(train_ds.features)
    test_scaled = bench_scaler.transform(test_ds.features)

    methods = args.methods
    _reject_repeats("method", methods)
    specs = _parse_grid(args.grid, ds.n_features)

    checkpoints = {}
    for path_str in args.checkpoints:
        denoiser = _load_model(Path(path_str), ds.feature_names)
        method = f"diffusion-{denoiser.config.arch}"
        if method in checkpoints:
            raise UsageError(f"checkpoints {checkpoints[method][0]} and {path_str} "
                             f"both provide {method}")
        if method not in methods:
            raise UsageError(f"checkpoint {path_str} provides {method}, "
                             f"which --methods does not list")
        checkpoints[method] = (path_str, denoiser)

    impute_fns = {}
    for method in methods:
        if method in BASELINE_KINDS:
            def fn(walks, _kind=method):
                return (baseline_impute(_kind, x, mask, train_scaled) for x, mask, _ in walks)
            impute_fns[method] = (fn, 1)
        elif method in checkpoints:
            _, denoiser = checkpoints[method]
            impute_fns[method] = (_diffusion_impute_fn(denoiser, opts, bench_scaler),
                                  args.n_inferences)
        else:
            raise UsageError(
                f"method {method!r} is not a baseline and no checkpoint provides it "
                f"(available: {sorted(checkpoints) or 'none'})"
            )

    masks = {spec.label: draw_masks(spec, *test_scaled.shape, args.n_mask_seeds,
                                    derive_seed(seed, _MASK_STREAM)) for spec in specs}
    cells = [(method, spec.label) for method in methods for spec in specs]
    imputations: dict = {}

    score_transform = bench_scaler.inverse_transform if args.report_space == "raw" else None

    def run_cell(cell):
        # undefined combinations (e.g. next-value fill on whole-column masks)
        # become "/" cells instead of aborting the sweep
        method, setting = cell
        fn, n_inf = impute_fns[method]
        try:
            return ensemble_eval(fn, method, test_scaled, setting, masks[setting],
                                 n_inferences=n_inf, imputation_sink=imputations,
                                 score_transform=score_transform)
        except BaselineError as err:
            _log(f"[benchmark] {method} undefined for {setting}: {err}")
            return []

    if args.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(c) for c in cells]
    rows = [r for cell_rows in results for r in cell_rows]

    row_values = [
        [r.method, r.setting, r.mask_seed, _fmt(r.mse),
         "" if r.pearson is None else _fmt(r.pearson)]
        for r in rows
    ]
    summary = summarize(rows)
    settings = [s.label for s in specs]
    matrix = (["method"] + settings, [
        [m] + [_fmt(summary[s][m]) if m in summary.get(s, {}) else "/" for s in settings]
        for m in methods
    ])
    rankable = [m for m in methods if all(m in summary.get(s, {}) for s in settings)]
    ranks = rank_table({s: {m: summary[s][m] for m in rankable} for s in settings})
    rank_cols = (["method", "mean", "std"], [[m, _fmt(mean), _fmt(std)] for m, mean, std in ranks])
    out_dir = args.out_dir
    reports = [
        (out_dir / "rows.csv", (["method", "setting", "mask_seed", "mse", "pearson"], row_values)),
        (out_dir / "summary.csv", matrix),
        (out_dir / "ranks.csv", rank_cols),
        (out_dir / "summary.txt", text_table(*matrix) + "\n" + text_table(*rank_cols)),
    ]

    # downstream task on the first mask seed's imputations, when labels exist
    if ds.target is not None:
        down_rows = []
        metric_name = "rmse" if ds.task == "regression" else "accuracy"
        complete = downstream_eval(train_scaled, train_ds.target, test_scaled,
                                   test_ds.target, ds.task, seed=seed)
        down_rows.append(["complete"] + [_fmt(complete)] * len(settings))
        for m in methods:
            vals = []
            for s in settings:
                if (m, s) not in imputations:
                    vals.append("/")
                    continue
                metric = downstream_eval(train_scaled, train_ds.target,
                                         imputations[(m, s)], test_ds.target,
                                         ds.task, seed=seed)
                vals.append(_fmt(metric))
            down_rows.append([m] + vals)
        reports.append((out_dir / f"downstream_{metric_name}.csv",
                        (["method"] + settings, down_rows)))

    return out_dir / "run_config.txt", reports


# -- ablate ------------------------------------------------------------------------


def cmd_ablate(args):
    if args.preset != "no-tst" and args.jump_n_sample != 1:
        raise UsageError(f"--preset {args.preset} sets the retrace depth itself; "
                         f"drop --jump-n-sample {args.jump_n_sample}")
    opts = _from_args(SamplerOptions, args, t_sampling=args.T_sampling)
    ds = load_csv(_existing(args.data, "data file"), target_column=args.target)
    denoiser = _load_model(args.checkpoint, ds.feature_names)
    scaler = denoiser.scaler
    arch = denoiser.config.arch
    _, test_ds = split(ds, fraction=args.split_fraction, seed=args.seed)
    # scored in the checkpoint's scaled space
    x_true = scaler.transform(test_ds.features) if scaler is not None else test_ds.features

    if args.preset == "tau-sweep":
        # retrace depth 5 rides along, matching the published sweep protocol;
        # a skip length covering the whole axis is the full plan
        runs = [(f"tau={tau}", denoiser,
                 replace(opts, tau=tau if tau < args.T_sampling else None, jump_n_sample=5))
                for tau in TAU_SWEEP]
    elif args.preset == "harmonization":
        runs = [(f"j={j}", denoiser, replace(opts, jump_n_sample=j)) for j in (1, 5)]
    else:  # no-tst
        if not args.checkpoint_no_tst:
            raise UsageError("--preset no-tst requires --checkpoint-no-tst")
        den2 = _load_model(args.checkpoint_no_tst, ds.feature_names)
        if den2.config.time_embedding:
            raise UsageError(
                "--checkpoint-no-tst must hold a model trained with the time tokenizer disabled"
            )
        if den2.config.arch != arch:
            raise UsageError("both checkpoints must share an architecture")
        runs = [("tst", denoiser, opts), ("no-tst", den2, opts)]

    spec = MaskSpec("mcar", p_random=args.mcar)
    masks = draw_masks(spec, *x_true.shape, args.n_mask_seeds,
                       derive_seed(args.seed, _MASK_STREAM))
    rows: list[list[str]] = []
    per_seed_rows: list[list[str]] = []
    for label, den, run_opts in runs:
        scored = ensemble_eval(_diffusion_impute_fn(den, run_opts), label, x_true,
                               spec.label, masks, n_inferences=args.n_inferences)
        rows.append([label, _fmt(np.mean([r.mse for r in scored]))])
        per_seed_rows += [[label, str(r.mask_seed), _fmt(r.mse)] for r in scored]

    out_dir = args.out_dir
    return out_dir / "run_config.txt", [
        (out_dir / "ablation.csv", (["setting", arch], rows)),
        (out_dir / "ablation_per_seed.csv", (["setting", "mask_seed", arch], per_seed_rows)),
        (out_dir / "ablation.txt", text_table(["setting", arch], rows)),
    ]


# -- argument parser -----------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tabdiffuse",
        description="Diffusion-based imputation for numeric tabular data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.command_parsers = {}

    def command(name, help, out_flag, out_help=None):
        """A command's parser, with the options every command takes."""
        p = parser.command_parsers[name] = sub.add_parser(name, help=help)
        p.add_argument("--config", default=None,
                       help="key = value config file; CLI flags win")
        p.add_argument("--data", type=Path, required=True)
        p.add_argument("--target", default=None, help="column excluded from the features")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument(out_flag, type=Path, required=True, help=out_help)
        return p

    def add_sampler_flags(p, plan=True):
        """Sampler options; ablate's presets set the skip and retrace
        lengths themselves (plan=False)."""
        p.add_argument("--T-sampling", type=int, default=500)
        p.add_argument("--eta", type=float, default=None,
                       help="reverse-step noise (DDIM eta); unset: 1 without --tau, 0 with it")
        p.add_argument("--jump-n-sample", type=int, default=1)
        p.add_argument("--n-inferences", type=_count("inferences"), default=5)
        if plan:
            p.add_argument("--tau", type=int, default=None,
                           help="skip-subset length (fast sampling)")
            p.add_argument("--jump-length", type=int, default=1)

    p_train = command("train", "train a denoiser on a complete table", "--out",
                      "output directory")
    p_train.add_argument("--arch", choices=ARCHITECTURES, default="mlp")
    p_train.add_argument("--epochs", type=int, default=20)
    p_train.add_argument("--batch-size", type=int, default=64)
    p_train.add_argument("--T", type=int, default=1000, help="training diffusion steps")
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--weight-decay", type=float, default=1e-5)
    p_train.add_argument("--beta-l1", type=float, default=1.0)
    p_train.add_argument("--blocks", type=int, default=3)
    p_train.add_argument("--hidden", type=int, default=None)
    p_train.add_argument("--embed-dim", type=int, default=192)
    p_train.add_argument("--heads", type=int, default=8)
    p_train.add_argument("--unet-channels", type=_ints, default=(16, 32))
    p_train.add_argument("--dtype", choices=("float64", "float32"), default="float64")
    p_train.add_argument("--no-time-embedding", dest="time_embedding", action="store_false")
    p_train.add_argument("--checkpoint-every", type=_count("epochs between checkpoints"),
                         default=None)

    p_imp = command("impute", "fill missing entries with a trained model", "--out",
                    "imputed CSV path")
    p_imp.add_argument("--checkpoint", type=Path, required=True)
    p_imp.add_argument("--mask", default=None, help="0/1 CSV, 1 = known")
    p_imp.add_argument("--mcar", type=float, default=None, help="missing-cell probability")
    p_imp.add_argument("--mar", type=int, default=None, help="number of fully missing columns")
    p_imp.add_argument("--skip-type", choices=("uniform", "quad"), default="uniform")
    add_sampler_flags(p_imp)

    p_bench = command("benchmark", "baselines + diffusion over a mask grid", "--out-dir")
    p_bench.add_argument("--methods", type=_names, default=BASELINE_KINDS,
                         help="comma list; baselines and diffusion-<arch>")
    p_bench.add_argument("--checkpoint", dest="checkpoints", action=_Repeat, default=[],
                         help="repeatable; provides diffusion-<arch> methods")
    p_bench.add_argument("--grid", nargs="+", default=["mcar=10..90"],
                         help="e.g. mcar=10..90 mar=1..4 or mcar=30,50")
    p_bench.add_argument("--split-fraction", type=float, default=0.8)
    p_bench.add_argument("--n-mask-seeds", type=_count("mask seeds"), default=5)
    p_bench.add_argument("--report-space", choices=("scaled", "raw"), default="scaled")
    p_bench.add_argument("--jobs", type=_count("jobs"), default=1)
    add_sampler_flags(p_bench)

    p_abl = command("ablate", "time-embedding / retrace / skip-length sweeps", "--out-dir")
    p_abl.add_argument("--checkpoint", type=Path, required=True)
    p_abl.add_argument("--checkpoint-no-tst", type=Path, default=None)
    p_abl.add_argument("--preset", choices=("no-tst", "harmonization", "tau-sweep"),
                       required=True)
    p_abl.add_argument("--mcar", type=float, default=0.3)
    p_abl.add_argument("--split-fraction", type=float, default=0.8)
    p_abl.add_argument("--n-mask-seeds", type=_count("mask seeds"), default=5)
    add_sampler_flags(p_abl, plan=False)
    return parser


COMMANDS = {
    "train": cmd_train,
    "impute": cmd_impute,
    "benchmark": cmd_benchmark,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config_file(args, parser)
            args = parser.parse_args(argv)
        write_reports(args, resolved_config(args, parser), *COMMANDS[args.command](args))
        return EXIT_OK
    except (ValueError, OSError) as err:  # UsageError and the input errors are ValueErrors
        _log(f"error: {err}")
        return EXIT_USAGE
    except (NumericError, TrainingDiverged) as err:
        _log(f"numeric failure: {err}")
        return EXIT_NUMERIC
    except Exception:  # noqa: BLE001 - surface invariant violations distinctly
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
