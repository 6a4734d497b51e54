"""Imputation inference.

The sampler walks a step plan (reverse traversal of a skip subset, with
optional retrace jumps) over a masked table.  On every denoising step the
known region is re-sampled by forward-diffusing the observations to the
target level, the unknown region is advanced by the one reverse step,
``impute_ddim_step``, and the mask picks each entry from one of the two
(the blend m * known + (1 - m) * unknown with m in {0, 1}).  On the full plan
(every step of the axis) with eta = 1 that step is the ancestral DDPM step,
and its last step, to level 0, adds no noise.  Retrace entries in the plan
re-noise the whole state forward.  The final output carries the raw observed
values verbatim at known entries.

Several walks (inferences) over tables of one shape run as one stacked
state: one network evaluation per step serves them all, and each walk draws
its noise from its own stream in the order it would alone.

The walks' normal draws are made ahead of the loop by the one worker thread
of ``parallel.read_ahead``, ``tabdiffuse-noise_0``.  It reads each stream in
order, ``DRAW_CHUNK`` (8) draws at a time, each one numpy pass with the bits
of the draws made one by one (``Rng.draw_normals``), and stacks the walks'
draws into one ``(DRAW_CHUNK, K * n, d)`` batch (``_walk_noise``); the loop
takes the batch's draws in turn and makes no ``Rng`` call.  Beyond the batch
in use, ``DRAWS_AHEAD`` + 1 (3) are finished or in the worker's hands: at
most four batches, 1.2 MB for three 400 x 4 walks.  Only the worker reads the
streams' bits, so every byte stays the same.  When the walk ends, or an error
ends it, the batches not yet begun are cancelled and the worker is joined.
OpenBLAS is pinned to one thread for the whole walk (nesting with the shards'
pin), which leaves the second core to the draws.  When the shard threads
take every core (the 128-row transformer on two), or when BLAS cannot be
pinned, the loop makes each batch itself when it needs it.

When the network was trained on a longer time axis than the sampler runs
(e.g. 1000 vs 500), the integer step fed to the network is rescaled by
T_train / T_sample so the time conditioning stays in distribution; the
cosine schedule's noise levels depend only on t/T, which makes the two
axes line up.  T_train is the network's own ``train_t``, which training
sets and a checkpoint restores; a network that was never trained gets the
sampling step unscaled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .denoisers import Denoiser
from .parallel import read_ahead, shard_bounds, shard_threads, sharded_eval
from .rng import Rng
from .schedule import (
    DiffusionSchedule,
    StepPlan,
    build_cosine_schedule,
    ddim_sigma,
    harmonization_plan,
    skip_seq,
)
from .tensor import keep_heap_mapped


# Clean-state clamp applied inside every reverse step of ``impute``; keeps the
# walk bounded even for an untrained network.
CLIP_X0 = (-1.0, 2.0)

# draws per walk in one numpy pass; the noise worker runs DRAWS_AHEAD + 1 batches ahead
DRAW_CHUNK = 8
DRAWS_AHEAD = 2


@dataclass(frozen=True)
class SamplerOptions:
    """Everything the sampling stage parameterizes."""

    t_sampling: int = 500
    tau: int | None = None  # skip-subset length; None = the full plan, every step
    skip_type: str = "uniform"
    eta: float | None = None  # step stochasticity; None = step_eta's default
    jump_length: int = 1
    jump_n_sample: int = 1  # retrace depth j; 1 = no retracing

    def __post_init__(self):
        if self.t_sampling < 1:
            raise ValueError("t_sampling must be >= 1")
        if self.tau is not None and not 1 <= self.tau <= self.t_sampling:
            raise ValueError("tau must lie in [1, t_sampling]")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if self.jump_length < 1 or self.jump_n_sample < 1:
            raise ValueError("jump parameters must be >= 1")
        # every step of the plan is checked here, so a bad plan fails before any work
        sched = build_cosine_schedule(self.t_sampling)
        for a, b in build_plan(self).pairs():
            if b < a:
                _step_sigma(sched, a + 1, b + 1, self.step_eta)

    @property
    def step_eta(self) -> float:
        """The given eta, else 1 (ancestral) on the full plan and 0 on a skip plan."""
        return self.eta if self.eta is not None else (1.0 if self.tau is None else 0.0)


@dataclass
class MaskedTable:
    """Observed table plus Boolean mask (True = known)."""

    x_obs: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.x_obs = np.asarray(self.x_obs, dtype=np.float64)
        self.mask = np.asarray(self.mask)
        if self.mask.dtype != np.bool_:
            if not np.all(np.isin(self.mask, (0, 1))):
                raise ValueError("mask must be Boolean")
            self.mask = self.mask.astype(bool)
        if self.x_obs.shape != self.mask.shape:
            raise ValueError("observations and mask must share a shape")
        if not np.all(np.isfinite(self.x_obs[self.mask])):
            raise ValueError("known entries must be finite")


# -- single-step operations -------------------------------------------------


def noisy_known(sched: DiffusionSchedule, x0: np.ndarray, level: int, eps: np.ndarray) -> np.ndarray:
    """Observations forward-diffused to ``level``; level 0 returns x0 exactly."""
    abar = sched.alpha_bar_at(level)
    return math.sqrt(abar) * x0 + math.sqrt(1.0 - abar) * eps


def _clip_state_estimate(
    sched: DiffusionSchedule,
    x_t: np.ndarray,
    t: int,
    eps_hat: np.ndarray,
    clip_x0: tuple[float, float],
) -> np.ndarray:
    """Clamp the implied clean state and re-derive the noise estimate.

    Re-deriving eps from the clamped estimate keeps the step a function of
    (x_t, x0_hat) only, so its eta = 1 case is the ancestral step even when
    the clamp binds.  Without a clamp the raw prediction is used and the
    step reduces to its textbook form.
    """
    abar = sched.alpha_bar_at(t)
    x0_hat = (x_t - math.sqrt(1.0 - abar) * eps_hat) / math.sqrt(abar)
    x0_hat = np.clip(x0_hat, clip_x0[0], clip_x0[1])
    return (x_t - math.sqrt(abar) * x0_hat) / math.sqrt(1.0 - abar)


def harmonize_jump(
    sched: DiffusionSchedule, x: np.ndarray, from_level: int, to_level: int, eps: np.ndarray
) -> np.ndarray:
    """Composed forward re-noising from one level to a higher one."""
    if not 0 <= from_level < to_level <= sched.T:
        raise IndexError("need 0 <= from_level < to_level <= T")
    ratio = sched.alpha_bar_at(to_level) / sched.alpha_bar_at(from_level)
    return math.sqrt(ratio) * x + math.sqrt(1.0 - ratio) * eps


def _step_sigma(sched: DiffusionSchedule, t: int, prev_t: int, eta: float) -> tuple[float, float]:
    """sigma and the squared direction weight 1 - abar_prev - sigma^2 of the
    step from t to prev_t; an eta that makes the weight negative is an error."""
    sigma = ddim_sigma(sched, t, prev_t, eta)
    direction_sq = 1.0 - sched.alpha_bar_at(prev_t) - sigma * sigma
    if direction_sq < -1e-12:
        raise ValueError(f"eta={eta} makes the direction term negative at t={t}")
    return sigma, direction_sq


def impute_ddim_step(
    sched: DiffusionSchedule,
    x_t: np.ndarray,
    t: int,
    prev_t: int,
    eps_hat: np.ndarray,
    eta: float,
    noise: np.ndarray,
    clip_x0: tuple[float, float] | None = None,
) -> np.ndarray:
    """Skip-capable reverse step through the clean-state estimate.

    x_prev = sqrt(abar_prev) x0_hat + sqrt(1 - abar_prev - sigma^2) eps_hat
             + sigma noise,   x0_hat = (x_t - sqrt(1 - abar_t) eps_hat) / sqrt(abar_t).

    With eta = 1 and prev_t = t - 1 this is the ancestral step
    (x_t - (1 - alpha_t) / sqrt(1 - abar_t) eps_hat) / sqrt(alpha_t) + sigma_post noise;
    sigma is 0 at prev_t = 0, so a step to level 0 adds no noise.
    """
    sigma, direction_sq = _step_sigma(sched, t, prev_t, eta)
    abar_t = sched.alpha_bar_at(t)
    abar_prev = sched.alpha_bar_at(prev_t)
    if clip_x0 is not None:
        eps_hat = _clip_state_estimate(sched, x_t, t, eps_hat, clip_x0)
    x0_hat = (x_t - math.sqrt(1.0 - abar_t) * eps_hat) / math.sqrt(abar_t)
    out = math.sqrt(abar_prev) * x0_hat + math.sqrt(max(direction_sq, 0.0)) * eps_hat
    if sigma > 0.0:
        out = out + sigma * noise
    return out


# -- full imputation ---------------------------------------------------------


def build_plan(opts: SamplerOptions) -> StepPlan:
    T = opts.t_sampling
    seq = skip_seq(T, opts.tau if opts.tau is not None else T, opts.skip_type)
    if any(b <= a for a, b in zip(seq, seq[1:])):
        # int truncation collapses dense quad subsets onto repeated steps
        raise ValueError(
            f"skip subset is not strictly ascending (tau={opts.tau}, "
            f"skip_type={opts.skip_type!r}); use a smaller tau"
        )
    return harmonization_plan(seq, opts.jump_length, opts.jump_n_sample)


def _denoiser_time(t_math: int, sample_t: int, train_t: int | None) -> int:
    if train_t is None:
        return t_math
    return max(1, round(t_math * train_t / sample_t))


def _walk_noise(rngs, shape, total: int):
    """The stacked state's next ``total`` normal draws, in batches of
    ``DRAW_CHUNK`` (fewer at the end): entry i of a ``(count, K * n, d)``
    batch is the i-th draw, walk k's rows from ``rngs[k]``."""
    for start in range(0, total, DRAW_CHUNK):
        count = min(DRAW_CHUNK, total - start)
        yield np.concatenate([rng.draw_normals(count, shape) for rng in rngs], axis=1)


def impute(
    denoiser: Denoiser,
    walks,
    opts: SamplerOptions,
    on_step=None,
) -> list[np.ndarray]:
    """Fill the unknown region of scaled tables; known entries pass through.

    ``walks`` is a sequence of ``(MaskedTable, seed)`` pairs, one inference
    each, over tables of one shape; they run as one stacked ``(K * n, d)``
    state, walk k drawing from ``Rng(seed_k)``.  Returns one array per walk,
    in walk order; every known entry equals its observation exactly.
    Averaging inferences is the evaluation protocol's job
    (``bench.average_inferences``).  Each network evaluation runs in row
    shards (``parallel.sharded_eval``) cut by the network and the stacked row
    count alone, never by the number of cores.  The noise is drawn ahead of
    the loop on a thread of its own (``_walk_noise``).
    """
    tables = [table for table, _ in walks]
    if not tables:
        raise ValueError("impute needs at least one walk; the walk list is empty")
    shape = tables[0].x_obs.shape
    if {table.x_obs.shape for table in tables} != {(shape[0], denoiser.config.n_features)}:
        raise ValueError(f"walks need tables of one shape (n, {denoiser.config.n_features}), "
                         f"got {sorted({table.x_obs.shape for table in tables})}")
    x_obs = np.concatenate([table.x_obs for table in tables])
    mask = np.concatenate([table.mask for table in tables])
    x0 = np.where(mask, x_obs, 0.0)  # placeholders at missing entries are never read
    sched = build_cosine_schedule(opts.t_sampling)
    plan = build_plan(opts)
    rngs = [Rng(seed) for _, seed in walks]
    n = len(x0)
    eta = opts.step_eta
    # a step's short-lived arrays grow with the network: size the kept heap by its weights
    keep_heap_mapped(max(2 << 20, sum(array.nbytes for _, array in denoiser.named_arrays())))
    train_t = denoiser.train_t
    top = plan.ts[0]
    # draws per walk: two for the first state and each denoising step, one per retrace
    n_draws = 2 + sum(2 if b < a else 1 for a, b in plan.pairs())
    busy = shard_threads(len(shard_bounds(denoiser, n)) - 1)
    noise = read_ahead(_walk_noise(rngs, shape, n_draws), DRAWS_AHEAD, "tabdiffuse-noise", busy)
    with noise as batches, sharded_eval(denoiser, n) as evaluate:
        draws = itertools.chain.from_iterable(batches)
        # Fixed draw order per step keeps each walk's noise stream identical across
        # eta values and stackings: known-region noise first, then the step noise.
        x = np.where(mask, noisy_known(sched, x0, top + 1, next(draws)), next(draws))
        if on_step is not None:
            on_step(top, x)
        for a, b in plan.pairs():
            if b < a:  # denoising step from level a+1 down to level b+1
                eps_known = next(draws)
                step_noise = next(draws)
                t_math = a + 1
                eps_hat = evaluate(x, np.full(n, _denoiser_time(t_math, sched.T, train_t)))
                unknown = impute_ddim_step(sched, x, t_math, b + 1, eps_hat, eta, step_noise,
                                           clip_x0=CLIP_X0)
                known = noisy_known(sched, x0, b + 1, eps_known)
                x = np.where(mask, known, unknown)
            else:  # retrace: re-noise the whole state from level a+1 up to b+1
                x = harmonize_jump(sched, x, a + 1, b + 1, next(draws))
            if on_step is not None:
                on_step(b, x)
    return np.split(np.where(mask, x_obs, x), len(tables))
