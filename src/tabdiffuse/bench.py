"""Evaluation protocol: mask grids, ensemble inference, downstream fits, ranks.

Protocol per (method, mask setting): draw ``n_mask_seeds`` masks
(``draw_masks``, once per setting, before any imputation, shared by every
method); for each mask average ``n_inferences`` independently seeded
imputations and score that average; report the mean of the per-mask
scores.  Deterministic imputers are unaffected by the averaging, stochastic
ones are smoothed by it.  The imputer gets every (mask, seed) walk of a
setting at once, so a sampler can stack walks, and streams the imputations
back in walk order.  ``average_inferences`` is the package's only loop that
averages inferences: ``ensemble_eval`` uses it per mask, and the ``impute``
command uses it on the user's table.  Ranks are computed within
each setting (1 = best, ties averaged) and aggregated as mean/std per method
across settings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .metrics import accuracy as accuracy_score
from .metrics import mse_missing, pearson_missing, rmse
from .optim import AdamW
from .rng import Rng, derive_seed
from .tensor import Tensor
from . import data as data_mod


@dataclass(frozen=True)
class MaskSpec:
    """One missingness setting of the evaluation grid."""

    mechanism: str  # "mcar" | "mar"
    p_random: float | None = None
    p_col: int | None = None

    def __post_init__(self):
        if self.mechanism == "mcar":
            if self.p_random is None or self.p_col is not None:
                raise ValueError("mcar takes p_random only")
            if not 0.0 < self.p_random < 1.0:
                raise ValueError(f"mcar p_random must lie in (0, 1), got {self.p_random:g}")
        elif self.mechanism == "mar":
            if self.p_col is None or self.p_random is not None:
                raise ValueError("mar takes p_col only")
            if self.p_col < 1:
                raise ValueError(f"mar p_col must be >= 1, got {self.p_col}")
        else:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")

    @property
    def label(self) -> str:
        if self.mechanism == "mcar":
            return f"mcar-{self.p_random:g}"
        return f"mar-{self.p_col}"

    def generate(self, n_rows: int, n_cols: int, seed: int) -> np.ndarray:
        if self.mechanism == "mcar":
            return data_mod.gen_mcar_mask(n_rows, n_cols, self.p_random, seed)
        return data_mod.gen_mar_mask(n_rows, n_cols, self.p_col, seed)


@dataclass(frozen=True)
class EvalRow:
    method: str
    setting: str
    mask_seed: int
    mse: float
    pearson: float | None  # None when undefined (zero-variance imputation)


def average_inferences(outputs, n: int) -> np.ndarray:
    """Mean of the next ``n`` imputations of the iterator ``outputs``, summed
    in order from zero and then divided by ``n``."""
    if n < 1:
        raise ValueError(f"the number of inferences must be >= 1, got {n}")
    return sum(itertools.islice(outputs, n), np.zeros(())) / n


def draw_masks(spec: MaskSpec, n_rows: int, n_cols: int, n_mask_seeds: int,
               base_seed: int) -> list[tuple[int, np.ndarray]]:
    """``spec``'s masks, each with its seed ``derive_seed(base_seed, s)``, which also
    seeds its inferences; a mask that hides no entry raises ``ValueError``."""
    if n_mask_seeds < 1:
        raise ValueError(f"the number of mask seeds must be >= 1, got {n_mask_seeds}")
    masks = []
    for s in range(n_mask_seeds):
        mask_seed = derive_seed(base_seed, s)
        mask = spec.generate(n_rows, n_cols, mask_seed)
        if mask.all():
            raise ValueError(f"the {spec.label} mask of mask seed {s} hides no entry to score")
        mask.flags.writeable = False  # every method of the setting reads the same array
        masks.append((mask_seed, mask))
    return masks


def ensemble_eval(
    impute_fn,
    method: str,
    x_true: np.ndarray,
    setting: str,
    masks: list[tuple[int, np.ndarray]],
    n_inferences: int = 5,
    imputation_sink: dict | None = None,
    score_transform=None,
) -> list[EvalRow]:
    """Score one imputer on one mask setting's ``masks`` (``draw_masks``).

    ``impute_fn(walks)`` gets every walk of the setting at once: a list of
    ``(x_obs, mask, seed)``, ``n_inferences`` per mask in mask order, seeded
    ``derive_seed(mask_seed, i)``, with ``x_obs`` zeroed at the missing
    cells.  It returns an iterator of single imputations in walk order; the
    harness averages each mask's ``n_inferences`` (``average_inferences``)
    before scoring, so the averaging order (average first, then score) is
    owned here.  When ``imputation_sink`` is given, the first mask seed's
    averaged imputation is stored under (method, setting) for downstream
    evaluation.  ``score_transform`` maps truth and imputation into the
    reporting space (e.g. a scaler's inverse) before the metrics are computed.
    """
    x_true = np.asarray(x_true, dtype=np.float64)
    truth_scored = score_transform(x_true) if score_transform is not None else x_true
    observed = [(np.where(mask, x_true, 0.0), mask, mask_seed) for mask_seed, mask in masks]
    outputs = iter(impute_fn([(x_obs, mask, derive_seed(mask_seed, i))
                              for x_obs, mask, mask_seed in observed
                              for i in range(n_inferences)]))
    rows: list[EvalRow] = []
    for s, (_, mask) in enumerate(masks):
        avg = average_inferences(outputs, n_inferences)
        if imputation_sink is not None and s == 0:
            imputation_sink[(method, setting)] = avg
        avg_scored = score_transform(avg) if score_transform is not None else avg
        try:
            pearson = pearson_missing(truth_scored, avg_scored, mask)
        except ValueError:
            pearson = None  # constant fills have no defined correlation
        rows.append(EvalRow(method, setting, s, mse_missing(truth_scored, avg_scored, mask),
                            pearson))
    return rows


def summarize(rows: list[EvalRow]) -> dict[str, dict[str, float]]:
    """setting -> method -> mean MSE over mask seeds."""
    acc: dict[tuple[str, str], list[float]] = {}
    for r in rows:
        acc.setdefault((r.setting, r.method), []).append(r.mse)
    out: dict[str, dict[str, float]] = {}
    for (setting, method), values in acc.items():
        out.setdefault(setting, {})[method] = float(np.mean(values))
    return out


# -- ranking ------------------------------------------------------------------


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks with 1 = smallest; exact ties share the average rank."""
    values = np.asarray(values, dtype=np.float64)
    ordered = np.sort(values)
    return (np.searchsorted(ordered, values, "left")
            + np.searchsorted(ordered, values, "right") + 1) / 2


def rank_table(summary: dict[str, dict[str, float]]) -> list[tuple[str, float, float]]:
    """Aggregate (method, mean rank, std rank) across settings; lower = better.

    Every setting must score the same method set.  Output order follows the
    method order of the first setting, so the table is invariant to how the
    input dict happens to be arranged.
    """
    settings = list(summary)
    if not settings:
        raise ValueError("empty summary")
    methods = sorted(summary[settings[0]])
    per_method: dict[str, list[float]] = {m: [] for m in methods}
    for setting in settings:
        if sorted(summary[setting]) != methods:
            raise ValueError(f"setting {setting!r} scores a different method set")
        vals = np.array([summary[setting][m] for m in methods])
        ranks = average_ranks(vals)
        for m, r in zip(methods, ranks):
            per_method[m].append(float(r))
    return [
        (m, float(np.mean(per_method[m])), float(np.std(per_method[m])))
        for m in methods
    ]


# -- downstream task -----------------------------------------------------------


def downstream_eval(
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    test_y: np.ndarray,
    task: str,
    seed: int = 0,
    steps: int = 300,
    lr: float = 0.05,
    weight_decay: float = 1e-4,
) -> float:
    """Fixed linear yardstick on imputed data: RMSE (regression) or accuracy.

    Ridge-style linear regression or multinomial logistic regression,
    full-batch AdamW with fixed hyper-parameters; not tuned per dataset.
    The loss gradients are closed-form: 2 (y_hat - y) / n for the mean
    squared error, (softmax - onehot) / n for the mean cross-entropy.
    """
    train_X = np.asarray(train_X, dtype=np.float64)
    test_X = np.asarray(test_X, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    test_y = np.asarray(test_y, dtype=np.float64)
    k = train_X.shape[1]
    rng = Rng(seed)

    if task == "regression":
        out_dim = 1
        y_fit = train_y[:, None]
    elif task in ("binclass", "multiclass"):
        classes = np.unique(train_y)
        if len(classes) < 2:
            raise ValueError("classification needs at least 2 classes in the training labels")
        lookup = {c: i for i, c in enumerate(classes)}
        idx = np.array([lookup[v] for v in train_y])
        onehot = np.zeros((len(train_y), len(classes)))
        onehot[np.arange(len(train_y)), idx] = 1.0
        out_dim = len(classes)
    else:
        raise ValueError(f"unknown task {task!r}")

    W = Tensor((2.0 * rng.uniform((k, out_dim)) - 1.0) * 0.01, requires_grad=True)
    b = Tensor(np.zeros(out_dim), requires_grad=True)
    opt = AdamW({"W": W, "b": b}, lr=lr, weight_decay=weight_decay)
    n = len(train_X)
    for _ in range(steps):
        logits = train_X @ W.data
        logits += b.data
        if task == "regression":
            g = (1.0 / n) * (logits - y_fit)
            g = g + g  # 2 d / n summed as autograd did, so the RMSE keeps its bits
        else:
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            g = (e / e.sum(axis=-1, keepdims=True) - onehot) / n
        W.grad, b.grad = train_X.T @ g, g.sum(axis=0)
        opt.step()

    test_logits = test_X @ W.data + b.data
    if task == "regression":
        return rmse(test_y, test_logits[:, 0])
    pred = classes[np.argmax(test_logits, axis=-1)]
    return accuracy_score(test_y, pred)
