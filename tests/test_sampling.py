import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import ancestral_step, ancestral_walk, serial_impute
from tabdiffuse import parallel
from tabdiffuse.bench import average_inferences
from tabdiffuse.denoisers import DenoiserConfig, build_denoiser
from tabdiffuse.rng import Rng, derive_seed
from tabdiffuse.sampling import (
    MaskedTable,
    SamplerOptions,
    build_plan,
    harmonize_jump,
    impute,
    impute_ddim_step,
    noisy_known,
)
from tabdiffuse.schedule import DiffusionSchedule, build_cosine_schedule


def near_identity_schedule(T=5, beta=1e-14):
    b = np.full(T, beta)
    return DiffusionSchedule(T=T, beta=b, alpha_bar=np.cumprod(1.0 - b))


def tiny_denoiser(k=2, seed=0):
    cfg = DenoiserConfig(arch="mlp", n_features=k, hidden=8, blocks=2,
                         ffn_dropout=0.0, residual_dropout=0.0)
    return build_denoiser(cfg, seed=seed)


# -- single-step ops -----------------------------------------------------------


def test_known_sample_t1_returns_observations():
    # the known-region sample one step below t = 1 is level 0: x0 exactly
    sched = build_cosine_schedule(50)
    x0 = Rng(0).normal((4, 3))
    eps = Rng(1).normal((4, 3))
    np.testing.assert_array_equal(noisy_known(sched, x0, 0, eps), x0)


def test_known_sample_zero_noise():
    sched = build_cosine_schedule(50)
    x0 = Rng(2).normal((4, 3))
    t = 17
    out = noisy_known(sched, x0, t - 1, np.zeros_like(x0))
    np.testing.assert_allclose(out, math.sqrt(sched.alpha_bar_at(t - 1)) * x0, atol=1e-15)


def test_known_sample_formula_oracle():
    sched = build_cosine_schedule(50)
    x0 = Rng(3).normal((4, 3))
    eps = Rng(4).normal((4, 3))
    for t in [1, 2, 25, 50]:
        ab = sched.alpha_bar_at(t - 1)
        expect = math.sqrt(ab) * x0 + math.sqrt(1 - ab) * eps
        np.testing.assert_allclose(noisy_known(sched, x0, t - 1, eps), expect, atol=1e-14)
    with pytest.raises(IndexError):
        noisy_known(sched, x0, -1, eps)


# The ancestral (DDPM) step is the reverse step at eta = 1 and unit steps;
# ``ancestral_step`` writes it out as the oracle.


def test_ddpm_step_identity_limit():
    sched = near_identity_schedule()
    x = Rng(5).normal((3, 2))
    zeros = np.zeros_like(x)
    out = impute_ddim_step(sched, x, 3, 2, zeros, 1.0, zeros)
    np.testing.assert_allclose(ancestral_step(sched, x, 3, zeros, zeros), x, atol=1e-9)
    np.testing.assert_allclose(out, x, atol=1e-9)


def test_ddpm_step_t1_deterministic():
    # the step to level 0 adds no noise: sigma is 0 there
    sched = build_cosine_schedule(20)
    x = Rng(6).normal((3, 2))
    eps_hat = Rng(7).normal((3, 2))
    big_noise = np.full_like(x, 1e6)
    out = impute_ddim_step(sched, x, 1, 0, eps_hat, 1.0, big_noise)
    np.testing.assert_array_equal(out, impute_ddim_step(sched, x, 1, 0, eps_hat, 1.0,
                                                        np.zeros_like(x)))
    np.testing.assert_allclose(out, ancestral_step(sched, x, 1, eps_hat, big_noise), atol=1e-14)


def test_ddpm_step_formula_oracle():
    sched = build_cosine_schedule(30)
    x = Rng(8).normal((2, 2))
    eps_hat = Rng(9).normal((2, 2))
    noise = Rng(10).normal((2, 2))
    t = 17
    expect = ancestral_step(sched, x, t, eps_hat, noise)
    np.testing.assert_allclose(impute_ddim_step(sched, x, t, t - 1, eps_hat, 1.0, noise), expect,
                               atol=1e-14)


def test_harmonize_back_identity_limit():
    # one harmonization step back up, from level t - 1 to t
    sched = near_identity_schedule()
    x = Rng(11).normal((3, 2))
    np.testing.assert_allclose(harmonize_jump(sched, x, 1, 2, np.zeros_like(x)), x, atol=1e-9)


def test_harmonize_back_variance_monte_carlo():
    sched = build_cosine_schedule(100)
    t = 60
    n = 100_000
    x = np.zeros((n, 1))
    out = harmonize_jump(sched, x, t - 1, t, Rng(12).normal((n, 1)))
    expect = sched.beta[t - 1]
    sigma_var = expect * np.sqrt(2.0 / (n - 1))
    assert abs(out.var() - expect) <= 3 * sigma_var


def test_harmonize_jump_adjacent_equals_single_step():
    sched = build_cosine_schedule(100)
    x = Rng(13).normal((3, 2))
    eps = Rng(14).normal((3, 2))
    for t in [2, 50, 100]:
        alpha = 1.0 - sched.beta[t - 1]
        np.testing.assert_allclose(
            harmonize_jump(sched, x, t - 1, t, eps),
            math.sqrt(alpha) * x + math.sqrt(1.0 - alpha) * eps,
            atol=1e-12,
        )


def test_impute_ddim_step_eta0_deterministic():
    sched = build_cosine_schedule(100)
    x = Rng(15).normal((3, 2))
    eps_hat = Rng(16).normal((3, 2))
    a = impute_ddim_step(sched, x, 60, 40, eps_hat, 0.0, np.full_like(x, 123.0))
    b = impute_ddim_step(sched, x, 60, 40, eps_hat, 0.0, np.zeros_like(x))
    np.testing.assert_array_equal(a, b)


def test_impute_ddim_step_eta1_adjacent_matches_ddpm():
    sched = build_cosine_schedule(200)
    x = Rng(17).normal((4, 3))
    eps_hat = Rng(18).normal((4, 3))
    noise = Rng(19).normal((4, 3))
    for t in [2, 7, 100, 200]:
        lhs = impute_ddim_step(sched, x, t, t - 1, eps_hat, 1.0, noise)
        rhs = ancestral_step(sched, x, t, eps_hat, noise)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_eta1_ddpm_identity_survives_state_clamp():
    # the step and the oracle both re-derive eps from the clamped clean-state
    # estimate, so the equivalence holds even when the clamp binds
    sched = build_cosine_schedule(200)
    x = Rng(40).normal((4, 3)) * 5.0  # large states force the clamp to bind
    eps_hat = Rng(41).normal((4, 3))
    noise = Rng(42).normal((4, 3))
    clip = (-1.0, 2.0)
    for t in [2, 7, 100, 200]:
        lhs = impute_ddim_step(sched, x, t, t - 1, eps_hat, 1.0, noise, clip_x0=clip)
        rhs = ancestral_step(sched, x, t, eps_hat, noise, clip_x0=clip)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_impute_ddim_step_zero_eps_hat_scales_state():
    sched = build_cosine_schedule(100)
    x = Rng(20).normal((3, 2))
    t, prev = 80, 30
    out = impute_ddim_step(sched, x, t, prev, np.zeros_like(x), 0.0, np.zeros_like(x))
    factor = math.sqrt(sched.alpha_bar_at(prev) / sched.alpha_bar_at(t))
    np.testing.assert_allclose(out, factor * x, atol=1e-12)


# -- options and table validation ---------------------------------------------------


def test_step_eta_default_follows_the_plan():
    # unset: 1 (ancestral) on the full plan, 0 (deterministic) on a skip plan;
    # a given eta applies to either
    assert SamplerOptions().step_eta == 1.0
    assert SamplerOptions(tau=10).step_eta == 0.0
    assert SamplerOptions(tau=500).step_eta == 0.0
    assert SamplerOptions(eta=0.0).step_eta == 0.0
    assert SamplerOptions(tau=10, eta=0.5).step_eta == 0.5


def test_sampler_options_validation():
    with pytest.raises(ValueError):
        SamplerOptions(tau=0)
    with pytest.raises(ValueError):
        SamplerOptions(tau=501, t_sampling=500)
    with pytest.raises(ValueError):
        SamplerOptions(eta=-0.1)
    with pytest.raises(ValueError):
        SamplerOptions(jump_length=0)
    # every step of the plan is checked up front: an eta above 1 breaks the
    # full plan's first step
    with pytest.raises(ValueError, match="direction term negative at t=500"):
        SamplerOptions(eta=1.5)


def test_masked_table_validation():
    x = np.ones((3, 2))
    MaskedTable(x, np.ones((3, 2), dtype=bool))
    MaskedTable(x, np.array([[1, 0], [0, 1], [1, 1]]))  # 0/1 ints accepted
    with pytest.raises(ValueError):
        MaskedTable(x, np.full((3, 2), 0.5))
    with pytest.raises(ValueError):
        MaskedTable(x, np.ones((2, 2), dtype=bool))
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        MaskedTable(bad, np.ones((3, 2), dtype=bool))


def test_masked_table_allows_placeholders_at_missing():
    x = np.ones((2, 2))
    x[0, 0] = np.nan
    m = np.ones((2, 2), dtype=bool)
    m[0, 0] = False
    table = MaskedTable(x, m)
    assert int((~table.mask).sum()) == 1


# -- end-to-end sampler --------------------------------------------------------------


def test_impute_all_known_returns_observations():
    den = tiny_denoiser()
    x = Rng(21).uniform((6, 2))
    table = MaskedTable(x, np.ones((6, 2), dtype=bool))
    opts = SamplerOptions(t_sampling=20)
    np.testing.assert_array_equal(impute(den, [(table, 3)], opts)[0], x)


def test_impute_deterministic_given_seed():
    den = tiny_denoiser()
    x = Rng(22).uniform((5, 2))
    m = Rng(23).uniform((5, 2)) > 0.4
    table = MaskedTable(x, m)
    opts = SamplerOptions(t_sampling=25)
    np.testing.assert_array_equal(impute(den, [(table, 9)], opts)[0],
                                  impute(den, [(table, 9)], opts)[0])


def test_impute_known_entries_exact_and_placeholders_ignored():
    den = tiny_denoiser()
    x = Rng(24).uniform((8, 2))
    m = Rng(25).uniform((8, 2)) > 0.35
    x_with_nan = x.copy()
    x_with_nan[~m] = np.nan  # placeholders must never be read
    table = MaskedTable(x_with_nan, m)
    opts = SamplerOptions(t_sampling=30)
    out = impute(den, [(table, 1)], opts)[0]
    np.testing.assert_array_equal(out[m], x[m])
    assert np.all(np.isfinite(out))


def test_impute_untrained_net_stays_bounded():
    den = tiny_denoiser(seed=5)
    x = Rng(26).normal((20, 2))  # standardized-ish data
    m = Rng(27).uniform((20, 2)) > 0.5
    table = MaskedTable(x, m)
    opts = SamplerOptions(t_sampling=200)
    out = impute(den, [(table, 4)], opts)[0]
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(out) <= 10.0)


def test_impute_visits_exactly_the_plan():
    den = tiny_denoiser()
    x = Rng(28).uniform((4, 2))
    m = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=bool)
    table = MaskedTable(x, m)
    opts = SamplerOptions(t_sampling=40, tau=8, jump_length=1, jump_n_sample=3)
    visited = []
    impute(den, [(table, 2)], opts, on_step=lambda t, state: visited.append(t))
    assert visited == build_plan(opts).ts


def test_dense_ddim_eta1_trajectory_matches_ddpm():
    # an unset tau is the full plan, tau = T, and an unset eta is 1 on it:
    # the walk is the ancestral one
    den = tiny_denoiser(seed=6)
    x = Rng(29).uniform((5, 2))
    m = Rng(30).uniform((5, 2)) > 0.5
    table = MaskedTable(x, m)
    T = 60
    base = dict(t_sampling=T, jump_length=1, jump_n_sample=2)
    states_a, states_b = [], []
    impute(den, [(table, 11)], SamplerOptions(**base),
           on_step=lambda t, s: states_a.append(s.copy()))
    impute(den, [(table, 11)], SamplerOptions(tau=T, eta=1.0, **base),
           on_step=lambda t, s: states_b.append(s.copy()))
    oracle = ancestral_walk(den, table, 11, T, jump_length=1, jump_n_sample=2)
    assert len(states_a) == len(states_b) == len(oracle)
    for sa, sb, so in zip(states_a, states_b, oracle):
        np.testing.assert_array_equal(sa, sb)
        assert np.max(np.abs(sa - so)) <= 1e-8


def test_ensemble_mean_is_arithmetic_mean_of_streams():
    den = tiny_denoiser(seed=7)
    x = Rng(31).uniform((4, 2))
    m = Rng(32).uniform((4, 2)) > 0.5
    table = MaskedTable(x, m)
    opts = SamplerOptions(t_sampling=15)
    walks = [(table, derive_seed(21, i)) for i in range(3)]
    out = average_inferences(iter(impute(den, walks, opts)), 3)
    singles = [impute(den, [walk], opts)[0] for walk in walks]
    assert not np.array_equal(singles[0], singles[1])  # the streams differ
    manual = np.mean(singles, axis=0)
    assert np.max(np.abs(out - manual)) <= 1e-12
    np.testing.assert_array_equal(singles[0][m], x[m])


STACKED = {  # (config, rows per walk); the MLP case is the benchmark's grid-mlp shape
    "mlp": (DenoiserConfig(arch="mlp", n_features=4), 400),
    "resnet": (DenoiserConfig(arch="resnet", n_features=4, hidden=16, blocks=2), 37),
    "transformer": (DenoiserConfig(arch="transformer", n_features=4, embed_dim=16, heads=2,
                                   blocks=1), 13),
    "unet": (DenoiserConfig(arch="unet", n_features=8, unet_channels=(4, 8),
                            groupnorm_groups=2, heads=2), 13),
}


@pytest.mark.parametrize("arch", sorted(STACKED))
def test_stacked_walks_match_separate_walks(arch):
    cfg, n = STACKED[arch]
    den = build_denoiser(cfg, seed=1)
    rng = Rng(40)
    walks = [(MaskedTable(rng.uniform((n, cfg.n_features)),
                          rng.uniform((n, cfg.n_features)) > 0.3), derive_seed(8, i))
             for i in range(3)]  # the grid-mlp batch: walks_per_batch(den, 400) == 3
    opts = SamplerOptions(t_sampling=20, jump_n_sample=2)  # retraces draw noise too
    stacked = impute(den, walks, opts)
    assert [out.tobytes() for out in impute(den, walks, opts)] == [
        out.tobytes() for out in stacked]
    for out, walk in zip(stacked, walks, strict=True):
        alone = impute(den, [walk], opts)[0]
        if arch == "mlp":  # stacking moves no row across an 8-row block of OpenBLAS
            np.testing.assert_array_equal(out, alone)
        else:
            np.testing.assert_allclose(out, alone, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(out[walk[0].mask], walk[0].x_obs[walk[0].mask])


READ_AHEAD_CASES = {  # (options, walks, rows per walk)
    "full-plan": (SamplerOptions(t_sampling=20), 1, 13),
    "tau25-retrace2": (SamplerOptions(t_sampling=500, tau=25, jump_n_sample=2), 1, 13),
    "3-stacked-walks": (SamplerOptions(t_sampling=20, jump_n_sample=2), 3, 13),
    "0-rows": (SamplerOptions(t_sampling=20), 1, 0),
    "no-time-embedding": (SamplerOptions(t_sampling=500, tau=25, jump_n_sample=2), 1, 13),
    "reused-table": (SamplerOptions(t_sampling=500, tau=25, jump_n_sample=2), 3, 13),
}


@pytest.mark.parametrize("case", sorted(READ_AHEAD_CASES))
@pytest.mark.parametrize("arch", sorted(STACKED))
def test_read_ahead_walk_is_bitwise_the_serial_loop(monkeypatch, arch, case):
    """Drawing the noise on its own thread, steps ahead, and taking each
    step's FiLM from the table made before the walk move no bit of the output
    or of any state the walk passes through; the serial loop runs the
    tokenizers in every forward."""
    monkeypatch.setattr(parallel, "_cores", lambda: 2)
    opts, n_walks, n = READ_AHEAD_CASES[case]
    cfg = replace(STACKED[arch][0], time_embedding=case != "no-time-embedding")
    den = build_denoiser(cfg, seed=3)
    rng = Rng(41)
    walks = [(MaskedTable(rng.uniform((n, cfg.n_features)),
                          rng.uniform((n, cfg.n_features)) > 0.3), derive_seed(9, i))
             for i in range(n_walks)]
    seen, expected, producing = [], [], []

    def record(level, x):
        producing.append("tabdiffuse-noise_0" in {t.name for t in threading.enumerate()})
        seen.append((level, x.tobytes()))

    films = {}
    if case == "reused-table":  # an earlier call fills the table; this one only reads it
        impute(den, walks[:1], opts, films=films)
    filled = dict(films)
    out = impute(den, walks, opts, on_step=record, films=films)
    reference = serial_impute(den, walks, opts,
                              on_step=lambda level, x: expected.append((level, x.tobytes())))
    assert [o.tobytes() for o in out] == [o.tobytes() for o in reference]
    assert all(films[time] is entry for time, entry in filled.items())
    assert len(films) == len({a for a, b in build_plan(opts).pairs() if b < a})
    assert seen == expected
    assert len(seen) == len(build_plan(opts))
    # at the first state the thread still has more batches to draw than it may hold
    assert producing[0] == (parallel.numpy_blas() is not None)


def test_no_walks_is_a_value_error():
    with pytest.raises(ValueError, match="walk list is empty"):
        impute(tiny_denoiser(), [], SamplerOptions(t_sampling=10))


def test_time_axis_rescaling_feeds_training_scale():
    cfg = DenoiserConfig(arch="mlp", n_features=2, hidden=8, blocks=1)
    den = build_denoiser(cfg, seed=0)
    seen = []
    original = den.forward

    def spy(x, t, training=False, rng=None):
        seen.append(int(np.max(t)))
        return original(x, t, training=training, rng=rng)

    den.forward = spy
    x = Rng(33).uniform((3, 2))
    table = MaskedTable(x, np.array([[1, 0]] * 3, dtype=bool))
    opts = SamplerOptions(t_sampling=50)
    den.train_t = 1000
    impute(den, [(table, 0)], opts)
    assert max(seen) == 1000  # top of the sampling axis maps to the training axis
    seen.clear()
    den.train_t = None  # never trained: the sampling step goes in unscaled
    impute(den, [(table, 0)], opts)
    assert max(seen) == 50


@pytest.mark.parametrize("config", [DenoiserConfig(arch="transformer", n_features=10),
                                    DenoiserConfig(arch="mlp", n_features=2, hidden=8, blocks=1)])
def test_sampler_keeps_a_heap_as_large_as_the_network(monkeypatch, config):
    # a step's short-lived arrays grow with the network; a heap kept at a fixed
    # 2 MB lets malloc trim them away and fault them back in on every step
    import tabdiffuse.sampling as sampling

    sizes = []
    monkeypatch.setattr(sampling, "keep_heap_mapped", sizes.append)
    den = build_denoiser(config, seed=0)
    table = MaskedTable(Rng(34).uniform((8, config.n_features)),
                        Rng(35).uniform((8, config.n_features)) > 0.3)
    impute(den, [(table, 0)], SamplerOptions(t_sampling=2))
    weights = sum(array.nbytes for _, array in den.named_arrays())
    assert sizes == [max(2 << 20, weights)]


def test_feature_count_mismatch_rejected():
    den = tiny_denoiser()
    table = MaskedTable(np.ones((3, 4)), np.ones((3, 4), dtype=bool))
    with pytest.raises(ValueError):
        impute(den, [(table, 0)], SamplerOptions(t_sampling=10))


def test_dense_quad_subset_rejected_with_clear_message():
    with pytest.raises(ValueError, match="strictly ascending"):
        SamplerOptions(t_sampling=500, tau=400, skip_type="quad")
