"""Diffusion time-axis machinery.

Cosine noise schedule, the variance of a (possibly skipping) reverse step,
the skip sequence used for accelerated sampling, and the retrace (jump)
plan that interleaves re-noising steps into the reverse walk.

Indexing convention: time steps are 1..T in every public accessor; arrays
are stored 0-indexed (entry i holds step t = i + 1), and the cumulative
signal fraction at t = 0 is defined as 1 so a step to t = 0 is noiseless.
Formulas that the literature writes with a bare per-step coefficient in
the skip-step variance actually require the cumulative product; cumulative
values are used throughout here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

COSINE_OFFSET = 0.008  # small-t offset of the cosine schedule
BETA_CLIP = 0.999  # per-step variance cap near t = T


@dataclass(frozen=True)
class DiffusionSchedule:
    """Precomputed per-step noise quantities for a T-step process."""

    T: int
    beta: np.ndarray
    alpha_bar: np.ndarray

    def alpha_bar_at(self, t: int) -> float:
        """Cumulative signal fraction; alpha_bar_at(0) == 1 by definition."""
        if not 0 <= t <= self.T:
            raise IndexError(f"time step {t} outside [0, {self.T}]")
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])


def build_cosine_schedule(T: int) -> DiffusionSchedule:
    """Cosine noise schedule over T steps.

    The cumulative signal fraction follows f(t)/f(0) with
    f(t) = cos^2(((t/T + s)/(1 + s)) * pi/2), s = 0.008; per-step variances
    are clipped at 0.999 and the cumulative product is recomputed from the
    clipped values so the product identity holds exactly.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    steps = np.arange(T + 1, dtype=np.float64)
    f = np.cos(((steps / T + COSINE_OFFSET) / (1.0 + COSINE_OFFSET)) * (math.pi / 2.0)) ** 2
    abar_raw = f / f[0]
    beta = np.minimum(1.0 - abar_raw[1:] / abar_raw[:-1], BETA_CLIP)
    return DiffusionSchedule(T=T, beta=beta, alpha_bar=np.cumprod(1.0 - beta))


def ddim_sigma(sched: DiffusionSchedule, t: int, prev_t: int, eta: float) -> float:
    """Stochasticity of a (possibly skipping) reverse step from t to prev_t.

    sigma = eta * sqrt((1 - abar_prev)/(1 - abar_t)) * sqrt(1 - abar_t/abar_prev);
    eta = 0 gives the deterministic sampler, eta = 1 with prev_t = t - 1
    recovers the ancestral posterior standard deviation.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if not 0 <= prev_t < t <= sched.T:
        raise IndexError(f"need 0 <= prev_t < t <= T, got prev_t={prev_t}, t={t}")
    abar_t = sched.alpha_bar_at(t)
    abar_prev = sched.alpha_bar_at(prev_t)
    return eta * math.sqrt((1.0 - abar_prev) / (1.0 - abar_t)) * math.sqrt(1.0 - abar_t / abar_prev)


def skip_seq(num_timesteps: int, timesteps: int, skip_type: str = "uniform") -> list[int]:
    """Ascending subset of 0-based step indices visited by the fast sampler.

    "uniform" strides the full range by num_timesteps // timesteps; "quad"
    squares a linspace up to sqrt(0.8 * num_timesteps) and truncates to ints.
    """
    if not 1 <= timesteps <= num_timesteps:
        raise ValueError("need 1 <= timesteps <= num_timesteps")
    if skip_type == "uniform":
        skip = num_timesteps // timesteps
        return list(range(0, num_timesteps, skip))
    if skip_type == "quad":
        seq = np.linspace(0, np.sqrt(num_timesteps * 0.8), timesteps) ** 2
        return [int(s) for s in seq]
    raise ValueError(f"unknown skip_type: {skip_type!r}")


@dataclass(frozen=True)
class StepPlan:
    """Ordered step-index visits of a sampling run, sentinel -1 terminal.

    Consecutive entries move one subset position down (a denoising step) or
    one position up (a retrace re-noising step).
    """

    ts: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ts)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.ts[:-1], self.ts[1:]))

    def n_denoise(self) -> int:
        """Denoising steps, one network evaluation each; retraces evaluate nothing."""
        return sum(b < a for a, b in self.pairs())


def harmonization_plan(ddim_seq: list[int], jump_length: int, jump_n_sample: int) -> StepPlan:
    """Reverse traversal of ``ddim_seq`` with retrace jumps interleaved.

    Every ``jump_n_sample``-th subset position (starting at the lowest, as
    long as it sits ``jump_length`` positions below the top) receives a
    budget of jump_n_sample - 1 retraces; whenever the walk descends onto a
    position with remaining budget it climbs back up ``jump_length``
    positions and descends again.  jump_n_sample = 1 yields the plain
    reverse traversal.
    """
    if not ddim_seq:
        raise ValueError("ddim_seq must be nonempty")
    if jump_length < 1 or jump_n_sample < 1:
        raise ValueError("jump parameters must be >= 1")
    budget: dict[int, int] = {}
    for j in range(0, len(ddim_seq) - jump_length, jump_n_sample):
        budget[ddim_seq[j]] = jump_n_sample - 1

    ts: list[int] = []
    pos = len(ddim_seq)
    while pos >= 1:
        pos -= 1
        ts.append(ddim_seq[pos])
        if budget.get(ddim_seq[pos], 0) > 0:
            budget[ddim_seq[pos]] -= 1
            for _ in range(jump_length):
                pos += 1
                ts.append(ddim_seq[pos])
    ts.append(-1)
    return StepPlan(ts=ts)
