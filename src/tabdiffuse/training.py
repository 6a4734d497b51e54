"""Denoising-network training on complete tables.

One epoch = a seeded reshuffle into mini-batches (the short trailing batch
is kept); each batch draws per-row uniform time steps and Gaussian noise,
diffuses the rows to those steps, and fits the network's noise prediction
with the smooth-L1 loss under AdamW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoisers import Denoiser
from .optim import AdamW, smooth_l1
from .rng import Rng
from .schedule import DiffusionSchedule, build_cosine_schedule
from .tensor import NumericError, Tensor


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; message carries the step index and lr."""


class NoGradientStep(RuntimeError):
    """An optimizer step found no parameter with a gradient, so it would
    change nothing (as when graph recording is off in the training thread)."""


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 20
    batch_size: int = 64
    t_training: int = 1000
    lr: float = 1e-3
    weight_decay: float = 1e-5
    beta_l1: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.t_training < 1:
            raise ValueError("t_training must be >= 1")
        if self.beta_l1 <= 0:
            raise ValueError("beta_l1 must be positive")


def q_sample(sched: DiffusionSchedule, x0: np.ndarray, t: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Diffuse clean rows to their per-row time steps.

    x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps, with t in [1, T] per row.
    """
    t = np.atleast_1d(np.asarray(t))
    if np.any(t < 1) or np.any(t > sched.T):
        raise IndexError(f"time steps must lie in [1, {sched.T}]")
    abar = sched.alpha_bar[t - 1][:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def train(
    denoiser: Denoiser,
    data: np.ndarray,
    cfg: TrainingConfig,
    sched: DiffusionSchedule | None = None,
    on_batch=None,
    on_epoch_end=None,
) -> list[float]:
    """Fit ``denoiser`` on a complete table; returns per-epoch mean losses.

    ``on_batch(step, t, loss)`` and ``on_epoch_end(epoch, losses)`` are
    optional instrumentation hooks.  The input table is never mutated.
    """
    data = np.asarray(data, dtype=denoiser.config.np_dtype)
    if data.ndim != 2 or data.shape[1] != denoiser.config.n_features:
        raise ValueError(f"expected (rows, {denoiser.config.n_features}) table")
    if not np.all(np.isfinite(data)):
        raise ValueError("training data must be finite")
    n = data.shape[0]
    if n < cfg.batch_size:
        raise ValueError(f"need at least batch_size={cfg.batch_size} rows, got {n}")
    if sched is None:
        sched = build_cosine_schedule(cfg.t_training)

    rng = Rng(cfg.seed)
    opt = AdamW(denoiser.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    history: list[float] = []
    step = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        batch_losses: list[float] = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            x0 = data[idx]
            t = rng.integers(1, sched.T + 1, (len(idx),))
            eps = rng.normal(x0.shape)
            x_t = q_sample(sched, x0, t, eps)
            try:
                pred = denoiser(x_t, t, training=True, rng=rng)
                loss = smooth_l1(pred, Tensor(eps.astype(x0.dtype)), beta=cfg.beta_l1)
                loss.backward()
            except NumericError as err:
                raise TrainingDiverged(
                    f"non-finite loss at step {step} (epoch {epoch}, lr {cfg.lr}): {err}"
                ) from err
            if opt.step() == 0:
                raise NoGradientStep(
                    f"no parameter received a gradient at step {step} (epoch {epoch})"
                )
            batch_losses.append(loss.item())
            if on_batch is not None:
                on_batch(step, t, batch_losses[-1])
            step += 1
        history.append(float(np.mean(batch_losses)))
        if on_epoch_end is not None:
            on_epoch_end(epoch, history)
    return history
