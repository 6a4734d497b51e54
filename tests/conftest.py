"""Shared test helpers: the central finite-difference gradient check, the
ancestral (DDPM) reverse step and walk written out as sampler oracles, and
the sampler's serial loop, which draws its noise inline, as the oracle of the
read-ahead one."""

from __future__ import annotations

import math

import numpy as np

from tabdiffuse.parallel import sharded_eval
from tabdiffuse.rng import Rng
from tabdiffuse.sampling import (
    CLIP_X0,
    _denoiser_time,
    build_plan,
    harmonize_jump,
    impute_ddim_step,
    noisy_known,
)
from tabdiffuse.schedule import build_cosine_schedule, harmonization_plan
from tabdiffuse.tensor import Tensor, no_grad


def numeric_grad(f, param: Tensor, h: float = 1e-5, coords=None) -> dict[int, float]:
    """Central-difference d f / d param[i] for flat indices ``coords``.

    ``f`` must be a deterministic closure returning a float; all state it
    reads other than ``param.data`` must stay fixed between calls.
    """
    flat = param.data.reshape(-1)
    if coords is None:
        coords = range(flat.size)
    out: dict[int, float] = {}
    with no_grad():  # the loss value only: the same bits, without recording a graph
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            out[i] = (fp - fm) / (2.0 * h)
    return out


def max_rel_err(analytic: np.ndarray, numeric: dict[int, float]) -> float:
    """Worst relative error over the checked coordinates.

    The denominator is floored at 1e-4 so near-zero gradients are compared
    with an absolute tolerance of tol * 1e-4.
    """
    a = analytic.reshape(-1)
    worst = 0.0
    for i, n in numeric.items():
        denom = max(abs(a[i]), abs(n), 1e-4)
        worst = max(worst, abs(a[i] - n) / denom)
    return worst


def check_gradients(make_loss, params, tol: float = 1e-4, max_coords: int | None = None,
                    seed: int = 0) -> float:
    """Assert analytic gradients match central differences for all ``params``.

    ``make_loss`` returns a scalar Tensor; it is re-evaluated many times, so
    it must be deterministic.  When ``max_coords`` is set, a seeded random
    subset of coordinates per parameter is checked.
    """
    for p in params:
        p.grad = None
    loss = make_loss()
    loss.backward()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        assert p.grad is not None, "parameter received no gradient"
        n = p.data.size
        if max_coords is not None and n > max_coords:
            coords = sorted(rng.choice(n, size=max_coords, replace=False).tolist())
        else:
            coords = None
        num = numeric_grad(lambda: make_loss().item(), p, coords=coords)
        worst = max(worst, max_rel_err(p.grad, num))
    assert worst <= tol, f"gradient mismatch: max rel err {worst:.3e} > {tol}"
    return worst


def ancestral_step(sched, x, t, eps_hat, z, clip_x0=None):
    """The ancestral reverse step from level t to t - 1, written out:
    (x - (1 - alpha_t) / sqrt(1 - abar_t) eps_hat) / sqrt(alpha_t) + sigma_post z.

    With ``clip_x0``, ``eps_hat`` is first re-derived from the clean-state
    estimate clamped to that range, as the sampler does.
    """
    beta, abar, abar_prev = sched.beta[t - 1], sched.alpha_bar_at(t), sched.alpha_bar_at(t - 1)
    alpha = 1.0 - beta
    if clip_x0 is not None:
        x0_hat = np.clip((x - math.sqrt(1 - abar) * eps_hat) / math.sqrt(abar), *clip_x0)
        eps_hat = (x - math.sqrt(abar) * x0_hat) / math.sqrt(1 - abar)
    mean = (x - (1 - alpha) / math.sqrt(1 - abar) * eps_hat) / math.sqrt(alpha)
    sigma_post = math.sqrt((1.0 - abar_prev) / (1.0 - abar) * beta)
    return mean + sigma_post * z


def ancestral_walk(denoiser, table, seed, T, jump_length=1, jump_n_sample=1):
    """Every state of a one-walk full-plan imputation, step by step: the
    retrace plan over all T levels, ``ancestral_step`` (clamped) for the
    unknown cells, the observations forward-noised for the known ones, and
    the sampler's draw order (known-region noise, then step noise; one draw
    per retrace).  ``denoiser`` must be untrained (no ``train_t``), so its time
    input is the step itself."""
    sched = build_cosine_schedule(T)
    plan = harmonization_plan(list(range(T)), jump_length, jump_n_sample)
    rng = Rng(seed)
    shape = table.x_obs.shape
    m = table.mask.astype(np.float64)
    x0 = np.where(table.mask, table.x_obs, 0.0)

    def known(level):
        abar = sched.alpha_bar_at(level)
        return math.sqrt(abar) * x0 + math.sqrt(1 - abar) * rng.normal(shape)

    x = m * known(plan.ts[0] + 1) + (1 - m) * rng.normal(shape)
    states = [x]
    for a, b in plan.pairs():
        if b < a:
            known_b = known(b + 1)
            z = rng.normal(shape)
            with no_grad():
                eps_hat = denoiser(x, np.full(shape[0], a + 1)).data
            x = m * known_b + (1 - m) * ancestral_step(sched, x, a + 1, eps_hat, z, CLIP_X0)
        else:
            ratio = sched.alpha_bar_at(b + 1) / sched.alpha_bar_at(a + 1)
            x = math.sqrt(ratio) * x + math.sqrt(1 - ratio) * rng.normal(shape)
        states.append(x)
    return states


def serial_impute(denoiser, walks, opts, on_step=None):
    """``sampling.impute`` as one loop on the calling thread: each step draws
    its noise where it uses it (known-region noise, then step noise; one draw
    per retrace), then evaluates the network and blends."""
    tables = [table for table, _ in walks]
    shape = tables[0].x_obs.shape
    x_obs = np.concatenate([table.x_obs for table in tables])
    mask = np.concatenate([table.mask for table in tables])
    x0 = np.where(mask, x_obs, 0.0)
    sched = build_cosine_schedule(opts.t_sampling)
    plan = build_plan(opts)
    rngs = [Rng(seed) for _, seed in walks]

    def normal():
        return np.concatenate([rng.normal(shape) for rng in rngs])

    n = len(x0)
    eta = opts.step_eta
    top = plan.ts[0]
    x = np.where(mask, noisy_known(sched, x0, top + 1, normal()), normal())
    if on_step is not None:
        on_step(top, x)
    with sharded_eval(denoiser, n) as evaluate:
        for a, b in plan.pairs():
            if b < a:
                eps_known = normal()
                step_noise = normal()
                t_math = a + 1
                eps_hat = evaluate(x, np.full(n, _denoiser_time(t_math, sched.T,
                                                                denoiser.train_t)))
                unknown = impute_ddim_step(sched, x, t_math, b + 1, eps_hat, eta, step_noise,
                                           clip_x0=CLIP_X0)
                known = noisy_known(sched, x0, b + 1, eps_known)
                x = np.where(mask, known, unknown)
            else:
                x = harmonize_jump(sched, x, a + 1, b + 1, normal())
            if on_step is not None:
                on_step(b, x)
    return np.split(np.where(mask, x_obs, x), len(tables))
